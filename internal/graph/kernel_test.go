package graph_test

// The per-node kernels against a copy of the branching kernel they
// replaced, and the reader index and rows kernel (nn.RowSummer) against
// brute force over the CSR arrays.

import (
	"math"
	"slices"
	"testing"

	"repro/internal/activation"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/rng"
)

// switchNodeSum is a node's in-edge sum as the kernels computed it
// before the indexed accumulator: each edge's concatenation column is
// derived from the level's source levels, and a switch on it picks the
// accumulator. It stays here as the bitwise oracle.
func switchNodeSum(g *graph.Net, l, to int, ys [][]float64) float64 {
	off := map[int]int{}
	concat := 0
	for _, v := range g.SrcLevels(l) {
		off[v] = concat
		concat += g.Width(v)
	}
	cut := concat &^ 3
	var s0, s1, s2, s3 float64
	for k := 0; k < g.FanIn(l, to); k++ {
		sl, si, w := g.InEdge(l, to, k)
		v := w * ys[sl][si]
		if c := off[sl] + si; c < cut {
			switch c & 3 {
			case 0:
				s0 += v
			case 1:
				s1 += v
			case 2:
				s2 += v
			case 3:
				s3 += v
			}
		} else {
			s0 += v
		}
	}
	return s0 + s1 + s2 + s3
}

// levelOutputs draws every level's outputs for a kernel call: kernels
// read only the sources, so any values will do.
func levelOutputs(r *rng.Rand, g *graph.Net) [][]float64 {
	ys := make([][]float64, g.NumLayers()+1)
	for v := range ys {
		ys[v] = make([]float64, g.Width(v))
		r.Floats(ys[v], -2, 2)
	}
	return ys
}

// kernelFixtures are a skip graph whose concatenation widths are not
// multiples of 4 (tail edges), a layered sparse graph, where LayerSums
// and OutputSum run the previous-level kernel, and a fully connected
// one, whose every level takes the dense-row path.
func kernelFixtures() []*graph.Net {
	return []*graph.Net{
		graph.NewSmallWorld(rng.New(41), 5, []int{19, 13, 22}, activation.NewSigmoid(1), 6, 0.5),
		graph.NewSparse(rng.New(43), 7, []int{30, 45, 9}, activation.NewTanh(1), 0.4),
		graph.NewLayered(rng.New(45), 6, []int{11, 8, 5}, activation.NewSigmoid(2)),
	}
}

// TestLevelKernelsMatchSwitchKernel pins LevelSums, LayerSums (where
// valid), OutputSumLevels and OutputSum to the switch kernel bit for
// bit, with and without skip rows.
func TestLevelKernelsMatchSwitchKernel(t *testing.T) {
	r := rng.New(47)
	for fi, g := range kernelFixtures() {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		L := g.NumLayers()
		layered := nn.IsLayered(g)
		if fi == 0 && layered {
			t.Fatal("skip fixture came out layered; the multi-level kernel would go untested")
		}
		for trial := 0; trial < 3; trial++ {
			ys := levelOutputs(r, g)
			for l := 1; l <= L; l++ {
				skip := []int{1, g.Width(l) - 1}
				got := make([]float64, g.Width(l))
				g.LevelSums(l, got, ys, skip)
				var prev []float64
				if layered {
					prev = make([]float64, g.Width(l))
					g.LayerSums(l, prev, ys[l-1], skip)
				}
				for to := range got {
					if slices.Contains(skip, to) {
						continue
					}
					want := switchNodeSum(g, l, to, ys) + g.Levels[l-1].Bias[to]
					if math.Float64bits(got[to]) != math.Float64bits(want) {
						t.Fatalf("fixture %d level %d row %d: LevelSums %v, switch kernel %v", fi, l, to, got[to], want)
					}
					if layered && math.Float64bits(prev[to]) != math.Float64bits(want) {
						t.Fatalf("fixture %d level %d row %d: LayerSums %v, switch kernel %v", fi, l, to, prev[to], want)
					}
				}
			}
			want := switchNodeSum(g, L+1, 0, ys) + g.Output.Bias[0]
			if got := g.OutputSumLevels(ys); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("fixture %d: OutputSumLevels %v, switch kernel %v", fi, got, want)
			}
			if layered {
				if got := g.OutputSum(ys[L]); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("fixture %d: OutputSum %v, switch kernel %v", fi, got, want)
				}
			}
		}
	}
}

// TestRowSumsMatchLevelSums checks the rows kernel: each listed row
// equals LevelSums' entry bitwise, in any listing order, and unlisted
// entries are left alone.
func TestRowSumsMatchLevelSums(t *testing.T) {
	r := rng.New(53)
	for fi, g := range kernelFixtures() {
		ys := levelOutputs(r, g)
		for l := 1; l <= g.NumLayers(); l++ {
			w := g.Width(l)
			want := make([]float64, w)
			g.LevelSums(l, want, ys, nil)
			rows := []int32{int32(w - 1), 0}
			for i := 2; i < w; i += 3 {
				rows = append(rows, int32(i))
			}
			got := make([]float64, w)
			for i := range got {
				got[i] = math.NaN()
			}
			g.RowSums(l, got, ys, rows)
			for i := range got {
				listed := slices.Contains(rows, int32(i))
				switch {
				case listed && math.Float64bits(got[i]) != math.Float64bits(want[i]):
					t.Fatalf("fixture %d level %d row %d: RowSums %v, LevelSums %v", fi, l, i, got[i], want[i])
				case !listed && !math.IsNaN(got[i]):
					t.Fatalf("fixture %d level %d: unlisted row %d written", fi, l, i)
				}
			}
		}
	}
}

// TestReadersMatchInEdges rebuilds the reader index by brute force over
// every hidden in-edge: node (v, i)'s readers are exactly the hidden
// rows with an edge from it, ascending in the level-by-level numbering.
func TestReadersMatchInEdges(t *testing.T) {
	for fi, g := range kernelFixtures() {
		L := g.NumLayers()
		base := make([]int, L+2)
		for l := 1; l <= L; l++ {
			base[l+1] = base[l] + g.Width(l)
		}
		want := make([][]int32, base[L+1])
		for l := 1; l <= L; l++ {
			for to := 0; to < g.Width(l); to++ {
				for k := 0; k < g.FanIn(l, to); k++ {
					if sl, si, _ := g.InEdge(l, to, k); sl >= 1 {
						want[base[sl]+si] = append(want[base[sl]+si], int32(base[l]+to))
					}
				}
			}
		}
		for v := 1; v <= L; v++ {
			for i := 0; i < g.Width(v); i++ {
				got := g.Readers(v, i)
				if !slices.Equal(got, want[base[v]+i]) {
					t.Fatalf("fixture %d node (%d,%d): readers %v, want %v", fi, v, i, got, want[base[v]+i])
				}
			}
		}
	}
}
