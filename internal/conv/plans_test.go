package conv

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/activation"
	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/rng"
)

// virtualDenseRandomSynapsePlan is the draw layered models used before
// synapse plans ran over the model's level view: one sample over the
// rows×cols virtual dense connectivity, decoded row-major.
func virtualDenseRandomSynapsePlan(r *rng.Rand, n nn.Model, perLayer []int) fault.Plan {
	var p fault.Plan
	for l := 1; l <= n.NumLayers()+1; l++ {
		rows, cols := n.Width(l), n.Width(l-1)
		for _, flat := range r.Sample(rows*cols, perLayer[l-1]) {
			p.Synapses = append(p.Synapses, fault.SynapseFault{Layer: l, To: flat / cols, From: flat % cols})
		}
	}
	return p
}

// virtualDenseAdversarialSynapsePlan ranks the virtual dense
// connectivity row-major by |weight|, as layered models did before.
func virtualDenseAdversarialSynapsePlan(n nn.Model, perLayer []int) fault.Plan {
	var p fault.Plan
	for l := 1; l <= n.NumLayers()+1; l++ {
		k := perLayer[l-1]
		if k == 0 {
			continue
		}
		type scored struct {
			to, from int
			w        float64
		}
		rows, cols := n.Width(l), n.Width(l-1)
		all := make([]scored, 0, rows*cols)
		for to := 0; to < rows; to++ {
			for from := 0; from < cols; from++ {
				all = append(all, scored{to, from, math.Abs(n.Weight(l, to, from))})
			}
		}
		sort.Slice(all, func(a, b int) bool { return all[a].w > all[b].w })
		for _, s := range all[:k] {
			p.Synapses = append(p.Synapses, fault.SynapseFault{Layer: l, To: s.to, From: s.from})
		}
	}
	return p
}

// TestSynapsePlansMatchVirtualDenseDraw pins seeded and adversarial
// synapse plans on layered models — dense, 1-D and 2-D conv, output
// synapses included — to the virtual dense draw they always used.
func TestSynapsePlansMatchVirtualDenseDraw(t *testing.T) {
	n1, _ := test1D(t, 229)
	n2, _ := test2D(t, 233)
	dense := nn.NewGlorot(rng.New(7), nn.Config{InputDim: 5, Widths: []int{6, 4}, Act: activation.NewSigmoid(1)})
	cases := []struct {
		name     string
		m        nn.Model
		perLayer []int
	}{
		{"dense", dense, []int{3, 2, 2}},
		{"conv1d", n1, []int{4, 5, 3}},
		{"conv2d", n2, []int{2, 6, 5}},
	}
	for _, tc := range cases {
		for seed := uint64(1); seed <= 5; seed++ {
			got := fault.RandomSynapsePlan(rng.New(seed), tc.m, tc.perLayer)
			want := virtualDenseRandomSynapsePlan(rng.New(seed), tc.m, tc.perLayer)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed %d: random plan %v, want %v", tc.name, seed, got.Synapses, want.Synapses)
			}
		}
		got := fault.AdversarialSynapsePlan(tc.m, tc.perLayer)
		want := virtualDenseAdversarialSynapsePlan(tc.m, tc.perLayer)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: adversarial plan %v, want %v", tc.name, got.Synapses, want.Synapses)
		}
	}
}
