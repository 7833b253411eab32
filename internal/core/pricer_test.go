package core_test

import (
	"reflect"
	"testing"

	"repro/internal/activation"
	"repro/internal/conv"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/rng"
)

// pricerModels returns one model of every architecture, layered and
// not.
func pricerModels(t *testing.T) map[string]nn.Model {
	t.Helper()
	act := activation.NewSigmoid(1)
	r := rng.New(21)
	c1, err := conv.NewRandom(r.Split(), 10, []int{3}, []int{2}, act, 0.5, true)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := conv.NewRandom2D(r.Split(), 6, 6, []int{3, 2}, []int{2, 2}, act, 0.5, true)
	if err != nil {
		t.Fatal(err)
	}
	// A skip graph whose level 2 has one in-edge for three nodes: the
	// per-node synapse cap binds there.
	thin := &graph.Net{
		InputDim: 1,
		Act:      act,
		Levels: []*graph.Level{
			{N: 2, Ptr: []int{0, 1, 2}, SrcLevel: []int{0, 0}, SrcIdx: []int{0, 0}, W: []float64{0.5, -0.4}},
			{N: 3, Ptr: []int{0, 1, 1, 1}, SrcLevel: []int{1}, SrcIdx: []int{0}, W: []float64{0.9}},
		},
		Output: &graph.Level{N: 1, Ptr: []int{0, 4}, SrcLevel: []int{1, 2, 2, 2}, SrcIdx: []int{1, 0, 1, 2}, W: []float64{0.3, 0.7, -0.2, 0.1}},
	}
	if err := thin.Validate(); err != nil {
		t.Fatal(err)
	}
	return map[string]nn.Model{
		"thin":       thin,
		"dense":      nn.NewRandom(r.Split(), nn.Config{InputDim: 2, Widths: []int{6, 4}, Act: act, Bias: true}, 1),
		"conv1d":     c1,
		"conv2d":     c2,
		"layered":    graph.NewLayered(r.Split(), 3, []int{5, 4}, act),
		"sparse":     graph.NewSparse(r.Split(), 3, []int{6, 6}, act, 0.3),
		"smallworld": graph.NewSmallWorld(r.Split(), 3, []int{8, 6, 5}, act, 2, 0.6),
	}
}

// TestNewPricerChoosesByTopology pins the one algebra rule: a
// *Certifier exactly when the model is layered, the per-node NodeShape
// otherwise, returned beside the model's Shape.
func TestNewPricerChoosesByTopology(t *testing.T) {
	kinds := map[bool]int{}
	for name, m := range pricerModels(t) {
		p, s, err := core.NewPricer(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		layered := nn.IsLayered(m)
		kinds[layered]++
		_, isCert := p.(*core.Certifier)
		_, isNode := p.(*core.NodeShape)
		if isCert != layered || isNode == layered {
			t.Errorf("%s (layered=%v): NewPricer returned %T", name, layered, p)
		}
		if !reflect.DeepEqual(s, core.ShapeOfModel(m)) {
			t.Errorf("%s: returned shape differs from ShapeOfModel", name)
		}
		// A fork prices identically; only a Certifier is copied.
		fork := core.ForkPricer(p)
		if (fork == p) == isCert {
			t.Errorf("%s: ForkPricer(%T) shared=%v", name, p, fork == p)
		}
		faults := make([]int, len(s.Widths))
		for i := range faults {
			faults[i] = 1
		}
		if got, want := fork.Fep(faults, 0.7), p.Fep(faults, 0.7); got != want {
			t.Errorf("%s: forked Fep %v, want %v", name, got, want)
		}
	}
	if kinds[true] == 0 || kinds[false] == 0 {
		t.Fatalf("fixtures cover layered=%d, non-layered=%d models; want both", kinds[true], kinds[false])
	}
}

// TestSynapseFaultsCapsSparseLevels: the derived synapse distribution
// copies the neuron faults with none on the output synapses, and under
// the per-node algebra never exceeds a level's edge count.
func TestSynapseFaultsCapsSparseLevels(t *testing.T) {
	for name, m := range pricerModels(t) {
		p, s, err := core.NewPricer(m)
		if err != nil {
			t.Fatal(err)
		}
		faults := append([]int(nil), s.Widths...)
		dst := make([]int, len(faults)+1)
		for i := range dst {
			dst[i] = -1
		}
		got := core.SynapseFaults(p, faults, dst)
		if got[len(got)-1] != 0 {
			t.Errorf("%s: output synapse faults %d, want 0", name, got[len(got)-1])
		}
		ns, node := p.(*core.NodeShape)
		for l, f := range faults {
			want := f
			if node && ns.SynapseCount(l+1) < want {
				want = ns.SynapseCount(l + 1)
			}
			if got[l] != want {
				t.Errorf("%s: synapse faults[%d] = %d, want %d", name, l, got[l], want)
			}
		}
		p.SynapseFep(got, 1) // must not panic
		if name == "thin" && got[1] != 1 {
			t.Errorf("thin: synapse faults into level 2 = %d, want the 1 edge", got[1])
		}
	}
}
