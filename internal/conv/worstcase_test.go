package conv

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/rng"
)

// runWorstCase runs a sequential tree search over the whole space.
func runWorstCase(t *testing.T, m nn.Model, perLayer []int, inputs [][]float64, opts fault.WorstCaseOptions) fault.ExhaustiveResult {
	t.Helper()
	opts.Sequential = true
	w, err := fault.NewWorstCase(m, perLayer, inputs, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited+res.Pruned != res.Configurations {
		t.Fatalf("visited %d + pruned %d != %d configurations", res.Visited, res.Pruned, res.Configurations)
	}
	return res
}

// TestWorstCaseConvMatchesFlat runs the tree search natively on conv
// models: the pruned and the unpruned walks must both return the flat
// enumeration's worst error bit for bit and its first-attaining plan.
func TestWorstCaseConvMatchesFlat(t *testing.T) {
	n1, _ := test1D(t, 211)
	n2, _ := test2D(t, 223)
	cases := []struct {
		name     string
		m        nn.Model
		perLayer []int
	}{
		{"conv1d", n1, []int{2, 1}},
		{"conv2d", n2, []int{1, 1}},
	}
	for _, tc := range cases {
		inputs := metrics.RandomPoints(rng.New(5), tc.m.Width(0), 4)
		flat, err := fault.ExhaustiveWorstCrashFlat(tc.m, tc.perLayer, inputs, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		for _, prune := range []bool{false, true} {
			got := runWorstCase(t, tc.m, tc.perLayer, inputs, fault.WorstCaseOptions{Prune: prune})
			if got.WorstError != flat.WorstError {
				t.Fatalf("%s prune=%v: worst %v != flat %v (must be bit-identical)", tc.name, prune, got.WorstError, flat.WorstError)
			}
			if !reflect.DeepEqual(got.WorstPlan, flat.WorstPlan) {
				t.Fatalf("%s prune=%v: plan %v != flat plan %v", tc.name, prune, got.WorstPlan, flat.WorstPlan)
			}
			if got.Configurations != flat.Configurations {
				t.Fatalf("%s: %d configurations, flat has %d", tc.name, got.Configurations, flat.Configurations)
			}
		}
	}
}

// TestWorstCaseConvByzantinePruningInvisible: with a deterministic
// Byzantine injector, pruning changes only how many configurations are
// evaluated, never the answer.
func TestWorstCaseConvByzantinePruningInvisible(t *testing.T) {
	n, _ := test1D(t, 227)
	inputs := metrics.RandomPoints(rng.New(6), n.Width(0), 3)
	inj := fault.Byzantine{C: 0.5, Sem: core.DeviationCap}
	perLayer := []int{1, 2}
	pruned := runWorstCase(t, n, perLayer, inputs, fault.WorstCaseOptions{Injector: inj, Prune: true})
	full := runWorstCase(t, n, perLayer, inputs, fault.WorstCaseOptions{Injector: inj})
	if pruned.WorstError != full.WorstError || !reflect.DeepEqual(pruned.WorstPlan, full.WorstPlan) {
		t.Fatalf("pruned (%v, %v) != unpruned (%v, %v)", pruned.WorstError, pruned.WorstPlan, full.WorstError, full.WorstPlan)
	}
	if full.Visited != full.Configurations || full.Pruned != 0 {
		t.Fatalf("unpruned walk visited %d, pruned %d of %d", full.Visited, full.Pruned, full.Configurations)
	}
}
