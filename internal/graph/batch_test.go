package graph_test

// The batched engine's graph matrix: on a genuinely non-layered skip
// graph, the fused level-scheduled multi-lane path must be
// bit-identical to the one-at-a-time scalar engine for EVERY
// registered fault model, across ragged lane counts and lanes with
// different divergence depths — and, like the dense engine, must not
// allocate in steady state.

import (
	"testing"

	"repro/internal/activation"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/rng"
)

// batchSkipNet builds a skip graph with real cross-level edges (the
// DAG batch path; asserted non-layered) wide enough for the fixed
// plans below, plus a shared input set.
func batchSkipNet(t *testing.T, seed uint64) (*graph.Net, [][]float64) {
	t.Helper()
	r := rng.New(seed)
	g := graph.NewSmallWorld(r, 3, []int{9, 7, 5}, activation.NewSigmoid(1), 2, 0.6)
	if nn.IsLayered(g) {
		t.Fatal("generator produced a layered graph; the DAG path would go untested — pick another seed")
	}
	inputs := make([][]float64, 6)
	for i := range inputs {
		x := make([]float64, 3)
		r.Floats(x, 0, 1)
		inputs[i] = x
	}
	return g, inputs
}

// lastEdge addresses node (l, to)'s last in-edge — a synapse fault
// valid on any generated topology, and on a rewired graph often a
// skip edge.
func lastEdge(g *graph.Net, l, to int) fault.SynapseFault {
	return fault.SynapseFault{Layer: l, To: to, From: g.FanIn(l, to) - 1}
}

// graphBatchPlans mirrors the dense matrix's lane mix on the graph's
// own addressing: an empty plan (never diverges), a deep-only plan,
// shallow plans, and plans with synapse faults either side of the
// output stage (in-edge ordinals, so faults can land on skip edges).
func graphBatchPlans(t *testing.T, r *rng.Rand, g *graph.Net) []fault.Plan {
	t.Helper()
	plans := []fault.Plan{
		{},
		{Neurons: []fault.NeuronFault{{Layer: 3, Index: 4}}},
		fault.RandomNeuronPlan(r, g, []int{2, 1, 1}),
		{Neurons: []fault.NeuronFault{{Layer: 1, Index: 0}, {Layer: 1, Index: 8}}},
		{Synapses: []fault.SynapseFault{lastEdge(g, 4, 0)}},
		{Neurons: []fault.NeuronFault{{Layer: 2, Index: 6}},
			Synapses: []fault.SynapseFault{lastEdge(g, 1, 2), lastEdge(g, 3, 1)}},
		fault.RandomNeuronPlan(r, g, []int{1, 1, 0}),
		randomGraphPlan(r, g),
	}
	for i, p := range plans {
		if err := p.Validate(g); err != nil {
			t.Fatalf("plan %d invalid on the generated graph: %v", i, err)
		}
	}
	return plans
}

// TestGraphBatchMatchesScalarAllModels ports the batched engine's
// ground-truth gate to arbitrary topologies: for every registered
// fault model, per-lane errors off the fused DAG sweep must be
// bit-identical to the scalar compiled engine — full and partial
// batches, lanes diverging at different levels, skip-edge synapse
// faults included. Stochastic models run on twin-seeded streams, so
// agreement also proves lane interleaving preserves each lane's draw
// order.
func TestGraphBatchMatchesScalarAllModels(t *testing.T) {
	g, inputs := batchSkipNet(t, 211)
	traces := fault.CleanTraces(g, inputs)
	r := rng.New(223)
	plans := graphBatchPlans(t, r, g)

	for _, m := range fault.Models() {
		build := func(seed uint64) fault.Injector {
			inj, err := m.New(fault.Params{C: 0.8, Sem: core.DeviationCap, Value: 0.4, Prob: 0.5, Bits: 8, Bit: 6, Net: g, R: rng.New(seed)})
			if err != nil {
				t.Fatalf("%s: %v", m.Name, err)
			}
			return inj
		}
		for _, lanes := range []int{1, 3, len(plans)} {
			bp := fault.CompileBatch(g, len(plans))
			bp.Reset(plans[:lanes])
			injs := make([]fault.Injector, lanes)
			oracle := make([]fault.Injector, lanes)
			scalars := make([]*fault.CompiledPlan, lanes)
			for p := 0; p < lanes; p++ {
				injs[p] = build(uint64(1000 + p))
				oracle[p] = build(uint64(1000 + p))
				scalars[p] = fault.Compile(g, plans[p])
			}
			out := make([]float64, lanes)
			for _, tr := range traces {
				bp.ErrorsOnTrace(injs, tr, out)
				for p := 0; p < lanes; p++ {
					want := scalars[p].ErrorOnTrace(oracle[p], tr)
					if out[p] != want {
						t.Fatalf("%s lanes=%d lane %d: batched %v != scalar %v", m.Name, lanes, p, out[p], want)
					}
				}
			}
		}
	}
}

// batchSparseNet is the row-path fixture: three 256-wide levels, each
// node reading about 5 nodes of the previous one, so a fault reaches a
// few dozen rows of the next level — the batched sweep computes those
// alone.
func batchSparseNet(seed uint64) (*graph.Net, [][]float64) {
	r := rng.New(seed)
	g := graph.NewSparse(r, 8, []int{256, 256, 256}, activation.NewSigmoid(1), 0.02)
	return g, randomInputs(r, 8, 4)
}

// sparseBatchPlans mixes the lanes the row path must get right: no
// faults, one crash and its deeper twin (compute sets equal at level 2,
// different at level 3), random faults on every level, a synapse fault
// on a level-2 row that no neuron fault reaches beside one on the
// output stage, two synapse faults on one row, and a flood of level-1
// faults that changes whole later levels (those lanes join the kernel).
func sparseBatchPlans(t *testing.T, r *rng.Rand, g *graph.Net) []fault.Plan {
	t.Helper()
	// A level-2 row that does not read node (1, 3).
	unreached := -1
	for to := 0; to < g.Width(2) && unreached < 0; to++ {
		reads := false
		for k := 0; k < g.FanIn(2, to); k++ {
			if sl, si, _ := g.InEdge(2, to, k); sl == 1 && si == 3 {
				reads = true
			}
		}
		if !reads {
			unreached = to
		}
	}
	plans := []fault.Plan{
		{},
		{Neurons: []fault.NeuronFault{{Layer: 1, Index: 3}}},
		{Neurons: []fault.NeuronFault{{Layer: 1, Index: 3}, {Layer: 2, Index: 200}}},
		fault.RandomNeuronPlan(r, g, []int{4, 4, 4}),
		{Neurons: []fault.NeuronFault{{Layer: 1, Index: 3}},
			Synapses: []fault.SynapseFault{lastEdge(g, 2, unreached), lastEdge(g, 4, 0)}},
		{Synapses: []fault.SynapseFault{{Layer: 3, To: 17, From: 0}, lastEdge(g, 3, 17)}},
		fault.RandomNeuronPlan(r, g, []int{200, 0, 1}),
		randomGraphPlan(r, g),
	}
	for i, p := range plans {
		if err := p.Validate(g); err != nil {
			t.Fatalf("plan %d invalid on the sparse graph: %v", i, err)
		}
	}
	return plans
}

// TestSparseBatchRowPathMatchesScalar is the row path's ground-truth
// gate: on the wide sparse graph, where most lanes compute only the
// rows their faults reach, every registered fault model's batched
// errors must equal the scalar engine's bit for bit — per-lane traces,
// ragged lane counts, and lanes mixing the row path and the kernel.
func TestSparseBatchRowPathMatchesScalar(t *testing.T) {
	g, inputs := batchSparseNet(239)
	traces := fault.CleanTraces(g, inputs)
	plans := sparseBatchPlans(t, rng.New(241), g)
	for _, m := range fault.Models() {
		build := func(seed uint64) fault.Injector {
			inj, err := m.New(fault.Params{C: 0.8, Sem: core.DeviationCap, Value: 0.4, Prob: 0.5, Bits: 8, Bit: 6, Net: g, R: rng.New(seed)})
			if err != nil {
				t.Fatalf("%s: %v", m.Name, err)
			}
			return inj
		}
		for _, lanes := range []int{1, 3, len(plans)} {
			bp := fault.CompileBatch(g, len(plans))
			bp.Reset(plans[:lanes])
			injs := make([]fault.Injector, lanes)
			oracle := make([]fault.Injector, lanes)
			scalars := make([]*fault.CompiledPlan, lanes)
			for p := 0; p < lanes; p++ {
				injs[p] = build(uint64(2000 + p))
				oracle[p] = build(uint64(2000 + p))
				scalars[p] = fault.Compile(g, plans[p])
			}
			out := make([]float64, lanes)
			trs := make([]*nn.Trace, lanes)
			for i := range traces {
				for p := range trs {
					trs[p] = traces[(i+p)%len(traces)]
				}
				bp.ErrorsOnTraces(injs, trs, out)
				for p := 0; p < lanes; p++ {
					want := scalars[p].ErrorOnTrace(oracle[p], trs[p])
					if out[p] != want {
						t.Fatalf("%s lanes=%d lane %d: batched %v != scalar %v", m.Name, lanes, p, out[p], want)
					}
				}
			}
		}
	}
}

// TestGraphBatchSteadyStateAllocs extends the batched engine's
// zero-allocation contract to graph models: once compiled and loaded,
// Reset + a full trace sweep over the level-scheduled lanes path must
// not allocate.
func TestGraphBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-instrumented sync.Pool allocates on Get; the contract is measured without the detector")
	}
	g, inputs := batchSkipNet(t, 227)
	traces := fault.CleanTraces(g, inputs)
	r := rng.New(229)
	plans := graphBatchPlans(t, r, g)
	bp := fault.CompileBatch(g, len(plans))
	injs := make([]fault.Injector, len(plans))
	for p := range injs {
		injs[p] = fault.Crash{}
	}
	out := make([]float64, len(plans))
	run := func() {
		bp.Reset(plans)
		for _, tr := range traces {
			bp.ErrorsOnTrace(injs, tr, out)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Errorf("batched graph sweep: %v allocs per run, want 0", allocs)
	}

	// The row path on the wide sparse graph: compute sets are rebuilt
	// in Reset's grow-only buffers, and each lane reads its own trace.
	sg, sinputs := batchSparseNet(251)
	straces := fault.CleanTraces(sg, sinputs)
	splans := sparseBatchPlans(t, rng.New(257), sg)
	sbp := fault.CompileBatch(sg, len(splans))
	trs := make([]*nn.Trace, len(splans))
	for p := range trs {
		trs[p] = straces[p%len(straces)]
	}
	sout := make([]float64, len(splans))
	srun := func() {
		sbp.Reset(splans)
		sbp.ErrorsOnTraces(injs, trs, sout)
	}
	srun()
	if allocs := testing.AllocsPerRun(50, srun); allocs != 0 {
		t.Errorf("batched sparse row-path sweep: %v allocs per run, want 0", allocs)
	}
}

// TestGraphCompiledSteadyStateAllocs is TestCompiledSteadyStateAllocs
// on a skip graph: under every deterministic registry model, Forward,
// ErrorOn and ErrorOnTrace of a compiled graph plan must not allocate
// once the pooled scratch is warm. The plan has neuron faults down to
// level 3 and synapse faults either side of the output stage, so
// ErrorOn and the nominal-reading Forward run the clean and damaged
// sums as two lanes of the CSR gather on every frontier level.
func TestGraphCompiledSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-instrumented sync.Pool allocates on Get; the contract is measured without the detector")
	}
	g, inputs := batchSkipNet(t, 233)
	x := inputs[0]
	tr := nn.TraceModel(g, x)
	p := fault.Plan{
		Neurons:  []fault.NeuronFault{{Layer: 1, Index: 0}, {Layer: 2, Index: 6}, {Layer: 3, Index: 4}},
		Synapses: []fault.SynapseFault{lastEdge(g, 1, 2), lastEdge(g, 3, 1), lastEdge(g, 4, 0)},
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	cp := fault.Compile(g, p)
	for _, m := range fault.Models() {
		if !m.Deterministic {
			continue
		}
		inj, err := m.New(fault.Params{C: 0.8, Sem: core.DeviationCap, Value: 0.4, Prob: 0.5, Bits: 8, Bit: 6, Net: g})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		cases := []struct {
			name string
			run  func()
		}{
			{m.Name + "/Forward", func() { cp.Forward(inj, x) }},
			{m.Name + "/ErrorOn", func() { cp.ErrorOn(inj, x) }},
			{m.Name + "/ErrorOnTrace", func() { cp.ErrorOnTrace(inj, tr) }},
		}
		for _, c := range cases {
			c.run() // warm the pooled scratch
			if allocs := testing.AllocsPerRun(100, c.run); allocs != 0 {
				t.Errorf("%s: %v allocs per run, want 0", c.name, allocs)
			}
		}
	}
}
