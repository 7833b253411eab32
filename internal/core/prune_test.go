package core_test

import (
	"math"
	"sort"
	"testing"

	"repro/internal/activation"
	"repro/internal/conv"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/rng"
)

// flatAct is a sigmoid that claims a zero Lipschitz constant.
type flatAct struct{ activation.Func }

func (flatAct) Lipschitz() float64 { return 0 }

// TestSubtreeBounderValidates: the bounder is reachable from serve
// requests, so malformed distributions are errors, not panics.
func TestSubtreeBounderValidates(t *testing.T) {
	sig := activation.NewSigmoid(1)
	net := nn.NewGlorot(rng.New(1), nn.Config{InputDim: 3, Widths: []int{4, 3}, Act: sig})
	if _, err := core.NewSubtreeBounder(net, []int{1}); err == nil {
		t.Fatal("short fault vector accepted")
	}
	if _, err := core.NewSubtreeBounder(net, []int{1, 4}); err == nil {
		t.Fatal("f_2 = 4 > N_2 = 3 accepted")
	}
	flat := nn.NewGlorot(rng.New(1), nn.Config{InputDim: 3, Widths: []int{4, 3}, Act: flatAct{sig}})
	if _, err := core.NewSubtreeBounder(flat, []int{1, 1}); err == nil {
		t.Fatal("zero Lipschitz constant accepted")
	}
}

// TestSubtreeBounderRootMatchesFep: with every level free, the
// bounder's amplifications are NodeShape's bit for bit, and pricing the
// worst f_l nodes of each level at cap c reproduces NodeShape.Fep — the
// d = 0 root of the search tree, where nothing is damaged yet.
func TestSubtreeBounderRootMatchesFep(t *testing.T) {
	sig := activation.NewSigmoid(1)
	conv1, err := conv.NewRandom(rng.New(3), 12, []int{3, 2}, []int{2, 2}, sig, 0.7, true)
	if err != nil {
		t.Fatal(err)
	}
	conv2, err := conv.NewRandom2D(rng.New(6), 5, 5, []int{2, 2}, []int{2, 1}, sig, 0.6, true)
	if err != nil {
		t.Fatal(err)
	}
	models := []struct {
		name   string
		m      nn.Model
		faults []int
	}{
		{"dense", nn.NewGlorot(rng.New(2), nn.Config{InputDim: 5, Widths: []int{7, 6, 4}, Act: sig, Bias: true}), []int{2, 0, 1}},
		{"conv1d", conv1, []int{3, 2}},
		{"conv2d", conv2, []int{2, 3}},
		{"sparse", graph.NewSparse(rng.New(4), 4, []int{6, 5, 4}, sig, 0.5), []int{1, 2, 1}},
		{"smallworld", graph.NewSmallWorld(rng.New(5), 3, []int{6, 5, 4}, activation.NewTanh(1), 2, 0.6), []int{2, 1, 1}},
	}
	const c = 0.75
	for _, tc := range models {
		b, err := core.NewSubtreeBounder(tc.m, tc.faults)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ns, err := core.NodeShapeOf(tc.m)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		total := 0.0
		for l := 1; l <= tc.m.NumLayers(); l++ {
			amp := b.Amp(l)
			if len(amp) != tc.m.Width(l) {
				t.Fatalf("%s: level %d has %d amplifications for width %d", tc.name, l, len(amp), tc.m.Width(l))
			}
			for i, a := range amp {
				if a != ns.Amp(l, i) {
					t.Fatalf("%s: Amp(%d)[%d] = %v, NodeShape has %v", tc.name, l, i, a, ns.Amp(l, i))
				}
			}
			top := append([]float64(nil), amp...)
			sort.Sort(sort.Reverse(sort.Float64Slice(top)))
			s := 0.0
			for _, a := range top[:tc.faults[l-1]] {
				s += a
			}
			total += s
		}
		if got, want := c*total, ns.Fep(tc.faults, c); got != want {
			t.Fatalf("%s: root bound %v != NodeShape.Fep %v", tc.name, got, want)
		}
	}
}

// pathSum is the definition of node (v, i)'s free-suffix coefficient
// written as a plain recursion over out-edges into levels >= from: the
// output node passes a deviation through unchanged, a free hidden node
// scales its received deviation by K and forwards it along all of its
// own out-edges.
func pathSum(dm nn.DAGModel, k float64, v, i, from int) float64 {
	L := dm.NumLayers()
	a := 0.0
	for t := from; t <= L+1; t++ {
		for j := 0; j < dm.Width(t); j++ {
			gain := 1.0
			if t <= L {
				gain = k * pathSum(dm, k, t, j, t+1)
			}
			for e := 0; e < dm.FanIn(t, j); e++ {
				if sl, si, w := dm.InEdge(t, j, e); sl == v && si == i {
					a += math.Abs(w) * gain
				}
			}
		}
	}
	return a
}

// TestSubtreeBounderCoefs checks Coef(d, v) against the path sums it
// stands for: node (v, i)'s deviation reaches the output along paths
// whose intermediate nodes all sit at free levels > d. On a layered
// model only level d itself has such paths; skip edges give shallower
// measured levels their own.
func TestSubtreeBounderCoefs(t *testing.T) {
	sig := activation.NewSigmoid(1)
	models := []struct {
		name string
		m    nn.Model
	}{
		{"dense", nn.NewGlorot(rng.New(8), nn.Config{InputDim: 3, Widths: []int{4, 3, 3}, Act: sig})},
		{"smallworld", graph.NewSmallWorld(rng.New(9), 3, []int{4, 4, 3}, sig, 2, 0.7)},
	}
	for _, tc := range models {
		b, err := core.NewSubtreeBounder(tc.m, []int{1, 1, 1})
		if err != nil {
			t.Fatal(err)
		}
		dm := nn.DAGOf(tc.m)
		k := sig.Lipschitz()
		skipMass := 0.0
		for d := 1; d <= b.MaxDepth(); d++ {
			for v := 1; v <= d; v++ {
				for i, got := range b.Coef(d, v) {
					want := pathSum(dm, k, v, i, d+1)
					if math.Abs(got-want) > 1e-12*math.Max(1, want) {
						t.Fatalf("%s: Coef(%d, %d)[%d] = %v, path sum %v", tc.name, d, v, i, got, want)
					}
					if v < d {
						skipMass += got
					}
				}
			}
		}
		if layered := nn.IsLayered(tc.m); layered != (skipMass == 0) {
			t.Fatalf("%s: layered=%v but shallower measured levels carry coefficient mass %v", tc.name, layered, skipMass)
		}
	}
}
