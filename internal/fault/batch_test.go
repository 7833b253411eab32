package fault

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/activation"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/rng"
)

// batchTestNet builds a dense net with biases so every kernel path
// (bias add, skip lists, synapse layers) is exercised.
func batchTestNet(seed uint64) (*nn.Network, [][]float64) {
	r := rng.New(seed)
	net := nn.NewRandom(r, nn.Config{InputDim: 3, Widths: []int{9, 7, 5}, Act: activation.NewSigmoid(1), Bias: true}, 0.6)
	inputs := make([][]float64, 6)
	for i := range inputs {
		x := make([]float64, 3)
		r.Floats(x, 0, 1)
		inputs[i] = x
	}
	return net, inputs
}

// TestBatchMatchesScalarAllModels is the tentpole's ground-truth gate:
// for EVERY registered fault model, the batched engine's per-lane
// errors must be bit-identical to the one-at-a-time oracle —
// full-capacity batches, partial batches, and lanes with different
// divergence layers all included. Stochastic models run on twin-seeded
// streams: each lane's injector owns its rng, so lane interleaving must
// not perturb any lane's draw sequence.
func TestBatchMatchesScalarAllModels(t *testing.T) {
	net, inputs := batchTestNet(101)
	traces := CleanTraces(net, inputs)
	r := rng.New(103)

	// Lane plans with deliberately mixed divergence: an empty plan
	// (never diverges), a deep-only plan, shallow plans, and plans with
	// synapse faults either side of the output stage.
	plans := []Plan{
		{},
		{Neurons: []NeuronFault{{Layer: 3, Index: 4}}},
		RandomNeuronPlan(r, net, []int{2, 1, 1}),
		{Neurons: []NeuronFault{{Layer: 1, Index: 0}, {Layer: 1, Index: 8}}},
		{Synapses: []SynapseFault{{Layer: 4, To: 0, From: 3}}},
		{Neurons: []NeuronFault{{Layer: 2, Index: 6}},
			Synapses: []SynapseFault{{Layer: 1, To: 2, From: 1}, {Layer: 3, To: 1, From: 5}}},
		RandomNeuronPlan(r, net, []int{1, 1, 0}),
		RandomNeuronPlan(r, net, []int{3, 2, 2}),
	}

	for _, m := range Models() {
		build := func(seed uint64) Injector {
			inj, err := m.New(Params{C: 0.8, Sem: core.DeviationCap, Value: 0.4, Prob: 0.5, Bits: 8, Bit: 6, Net: net, R: rng.New(seed)})
			if err != nil {
				t.Fatalf("%s: %v", m.Name, err)
			}
			return inj
		}
		for _, lanes := range []int{1, 3, len(plans)} {
			bp := CompileBatch(net, len(plans))
			bp.Reset(plans[:lanes])
			// Stochastic injectors advance their rng across traces, so
			// the scalar oracle replays the whole trace sweep per lane
			// on a twin-seeded injector — same visit order, same draws.
			injs := make([]Injector, lanes)
			oracle := make([]Injector, lanes)
			scalars := make([]*CompiledPlan, lanes)
			for p := 0; p < lanes; p++ {
				injs[p] = build(uint64(1000 + p))
				oracle[p] = build(uint64(1000 + p))
				scalars[p] = Compile(net, plans[p])
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

// TestBatchResetSharedMatchesScalar pins the input-batching axis
// (MaxError's configuration: one plan, many traces per call).
func TestBatchResetSharedMatchesScalar(t *testing.T) {
	net, inputs := batchTestNet(113)
	traces := CleanTraces(net, inputs)
	r := rng.New(127)
	plan := RandomNeuronPlan(r, net, []int{2, 2, 1})
	cp := Compile(net, plan)
	inj := Crash{}

	bp := CompileBatch(net, 4)
	injs := []Injector{inj, inj, inj, inj}
	out := make([]float64, 4)
	for i := 0; i < len(traces); i += 4 {
		k := len(traces) - i
		if k > 4 {
			k = 4
		}
		bp.ResetShared(plan, k)
		bp.ErrorsOnTraces(injs[:k], traces[i:i+k], out[:k])
		for p := 0; p < k; p++ {
			if want := cp.ErrorOnTrace(inj, traces[i+p]); out[p] != want {
				t.Fatalf("trace %d: batched %v != scalar %v", i+p, out[p], want)
			}
		}
	}
}

// TestBatchedPathsMatchScalarSweeps pins the rewired public entry
// points end to end: MaxError against MaxErrorSeq, and MonteCarlo
// against a scalar replay of its historical trial loop — same seed,
// same draws, identical profile.
func TestBatchedPathsMatchScalarSweeps(t *testing.T) {
	net, inputs := batchTestNet(131)
	r := rng.New(137)
	plan := RandomNeuronPlan(r, net, []int{2, 1, 1})
	if got, want := MaxError(net, plan, Crash{}, inputs), MaxErrorSeq(net, plan, Crash{}, inputs); got != want {
		t.Fatalf("MaxError batched %v != sequential %v", got, want)
	}

	const trials = 37 // not a multiple of BatchLanes: exercises the tail group
	perLayer := []int{1, 1, 1}
	got := MonteCarlo(net, perLayer, 0.9, core.DeviationCap, inputs, trials, rng.New(139))

	// Scalar replay of the pre-batching MonteCarlo loop.
	traces := CleanTraces(net, inputs)
	rr := rng.New(139)
	errs := make([]float64, trials)
	for t2 := 0; t2 < trials; t2++ {
		p := RandomNeuronPlan(rr, net, perLayer)
		inj := Injector(RandomByzantine{C: 0.9, Sem: core.DeviationCap, R: rr.Split()})
		cp := Compile(net, p)
		worst := 0.0
		for _, tr := range traces {
			if e := cp.ErrorOnTrace(inj, tr); e > worst {
				worst = e
			}
		}
		errs[t2] = worst
	}
	want := ProfileOf(errs)
	if got.Stats != want.Stats || got.Q90 != want.Q90 || got.Q99 != want.Q99 {
		t.Fatalf("MonteCarlo batched profile %+v != scalar replay %+v", got, want)
	}
}

// TestBatchSteadyStateAllocs extends the zero-allocation contract to
// the batched engine: once compiled and loaded, Reset + ErrorsOnTrace
// must not allocate.
func TestBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-instrumented sync.Pool allocates on Get; the contract is measured without the detector")
	}
	net, inputs := batchTestNet(149)
	traces := CleanTraces(net, inputs)
	r := rng.New(151)
	plans := make([]Plan, BatchLanes)
	for p := range plans {
		plans[p] = RandomNeuronPlan(r, net, []int{1, 1, 1})
	}
	bp := CompileBatch(net, BatchLanes)
	injs := make([]Injector, BatchLanes)
	for p := range injs {
		injs[p] = Crash{}
	}
	out := make([]float64, BatchLanes)
	run := func() {
		bp.Reset(plans)
		for _, tr := range traces {
			bp.ErrorsOnTrace(injs, tr, out)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Errorf("batched sweep: %v allocs per run, want 0", allocs)
	}
}

// TestBatchCapacityPanics pins the overload panics, each with the
// package's own message rather than a runtime bounds error.
func TestBatchCapacityPanics(t *testing.T) {
	net, _ := batchTestNet(157)
	bp := CompileBatch(net, 2)
	if bp.Lanes() != 2 {
		t.Fatalf("Lanes() = %d, want 2", bp.Lanes())
	}
	short := func() {
		bp.Reset(make([]Plan, 2))
		bp.ErrorsOnTraces(make([]Injector, 2), make([]*nn.Trace, 1), make([]float64, 2))
	}
	for _, run := range []func(){
		func() { bp.Reset(make([]Plan, 3)) },
		func() { bp.ResetShared(Plan{}, 3) },
		short,
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "fault: ") {
					t.Errorf("want a fault: panic on over-capacity load or short trace slice, got %q", msg)
				}
			}()
			run()
		}()
	}
}

// reachable is the brute-force compute set of a plan on a graph: level
// by level, the rows carrying a synapse fault or reading, through any
// in-edge, a changed node (reached or overridden) of an earlier level.
func reachable(g *graph.Net, p Plan) [][]int32 {
	L := g.NumLayers()
	changed := make([][]bool, L+1)
	sets := make([][]int32, L+1)
	for l := 1; l <= L; l++ {
		changed[l] = make([]bool, g.Width(l))
		for to := range changed[l] {
			in := false
			for _, f := range p.Synapses {
				in = in || (f.Layer == l && f.To == to)
			}
			for k := 0; k < g.FanIn(l, to); k++ {
				if sl, si, _ := g.InEdge(l, to, k); sl >= 1 && changed[sl][si] {
					in = true
				}
			}
			if in {
				sets[l] = append(sets[l], int32(to))
			}
			changed[l][to] = in
		}
		for _, f := range p.Neurons {
			if f.Layer == l {
				changed[l][f.Index] = true
			}
		}
	}
	return sets
}

// TestBatchComputeSetsAreReachability checks Reset's compute sets on
// sparse graphs, layered and with skip edges, against brute-force
// forward reachability from each plan's faulted neurons and synapse
// targets; that a lane joins the kernel exactly when its set and its
// overrides cover the level; that the row path is really exercised
// (some non-empty set is smaller than its level); that ResetShared
// builds the same sets in every lane; and that no mark outlives Reset.
func TestBatchComputeSetsAreReachability(t *testing.T) {
	fixtures := []*graph.Net{
		graph.NewSparse(rng.New(263), 8, []int{256, 256, 256}, activation.NewSigmoid(1), 0.02),
		graph.NewSmallWorld(rng.New(269), 8, []int{128, 96, 128}, activation.NewSigmoid(1), 3, 0.3),
	}
	for fi, g := range fixtures {
		r := rng.New(271)
		L := g.NumLayers()
		var plans []Plan
		for i := 0; i < 6; i++ {
			p := RandomNeuronPlan(r, g, []int{r.Intn(5), r.Intn(5), r.Intn(5)})
			p.Synapses = RandomSynapsePlan(r, g, []int{r.Intn(2), r.Intn(3), r.Intn(2), r.Intn(2)}).Synapses
			plans = append(plans, p)
		}
		plans = append(plans, RandomNeuronPlan(r, g, []int{100, 0, 0}))
		bp := CompileBatch(g, len(plans))
		rowPath, kernel := false, false
		check := func(lane int, plan Plan) {
			t.Helper()
			want := reachable(g, plan)
			ls := &bp.sets[lane]
			for l := 1; l <= L; l++ {
				got := slices.Clone(ls.rows[l])
				slices.Sort(got)
				if !slices.Equal(got, want[l]) {
					t.Fatalf("fixture %d plan %+v level %d: compute set %v, reachability %v", fi, plan, l, got, want[l])
				}
				covered := len(want[l])
				for _, i := range bp.lanes[lane].overridden[l] {
					if _, in := slices.BinarySearch(want[l], int32(i)); !in {
						covered++
					}
				}
				if ls.kernel[l] != (covered == g.Width(l)) {
					t.Fatalf("fixture %d level %d: kernel = %v with %d of %d rows changed", fi, l, ls.kernel[l], covered, g.Width(l))
				}
				rowPath = rowPath || (len(got) > 0 && len(got) < g.Width(l))
				kernel = kernel || ls.kernel[l]
			}
			if i := slices.Index(bp.mark, true); i >= 0 {
				t.Fatalf("fixture %d: mark %d left set after Reset", fi, i)
			}
		}
		bp.Reset(plans)
		for lane, plan := range plans {
			check(lane, plan)
		}
		for _, plan := range plans {
			bp.ResetShared(plan, 2)
			check(0, plan)
			check(1, plan)
		}
		if !rowPath || !kernel {
			t.Fatalf("fixture %d: row path taken %v, kernel taken %v; the plans must exercise both", fi, rowPath, kernel)
		}
	}
}
