package fault

import (
	"math"
	"testing"

	"repro/internal/activation"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// forwardReference replicates the pre-engine Forward implementation (one
// full clean trace plus a damaged pass, allocating per layer) verbatim.
// The compiled engine must agree with it bit for bit.
func forwardReference(n *nn.Network, p Plan, inj Injector, x []float64) float64 {
	L := n.Layers()
	neuronsAt := make([][]NeuronFault, L+1)
	for _, f := range p.Neurons {
		neuronsAt[f.Layer] = append(neuronsAt[f.Layer], f)
	}
	synapsesAt := make([][]SynapseFault, L+2)
	for _, f := range p.Synapses {
		synapsesAt[f.Layer] = append(synapsesAt[f.Layer], f)
	}
	clean := n.ForwardTrace(x)
	y := x
	for l := 1; l <= L; l++ {
		m := n.Hidden[l-1]
		s := m.MulVec(y)
		if n.Biases != nil && n.Biases[l-1] != nil {
			tensor.Add(s, s, n.Biases[l-1])
		}
		for _, f := range synapsesAt[l] {
			transmitted := m.At(f.To, f.From) * y[f.From]
			s[f.To] += inj.SynapseDelta(f, transmitted)
		}
		out := make([]float64, len(s))
		for j := range s {
			out[j] = n.Act.Eval(s[j])
		}
		for _, f := range neuronsAt[l] {
			out[f.Index] = inj.NeuronValue(f, clean.Outputs[l-1][f.Index])
		}
		y = out
	}
	sum := tensor.Dot(n.Output, y) + n.OutputBias
	for _, f := range synapsesAt[L+1] {
		transmitted := n.Output[f.From] * y[f.From]
		sum += inj.SynapseDelta(f, transmitted)
	}
	return sum
}

// testPlans builds a spread of plans: empty, neuron-only (shallow, deep,
// everywhere), synapse-only (hidden and output layers), and mixed.
func testPlans(r *rng.Rand, n *nn.Network) []Plan {
	L := n.Layers()
	all := make([]int, L)
	deep := make([]int, L)
	for l := range all {
		all[l] = 1
	}
	deep[L-1] = 2
	synAll := make([]int, L+1)
	for l := range synAll {
		synAll[l] = 1
	}
	plans := []Plan{
		{},
		RandomNeuronPlan(r, n, all),
		RandomNeuronPlan(r, n, deep),
		AdversarialNeuronPlan(n, all),
		RandomSynapsePlan(r, n, synAll),
		AdversarialSynapsePlan(n, synAll),
	}
	mixed := RandomNeuronPlan(r, n, all)
	mixed.Synapses = RandomSynapsePlan(r, n, synAll).Synapses
	plans = append(plans, mixed)
	// A degenerate plan listing the same neuron twice (invalid per
	// Validate, but the engine must keep the reference's last-write-wins
	// semantics rather than panic).
	dup := NeuronFault{Layer: 1, Index: 0}
	plans = append(plans, Plan{Neurons: []NeuronFault{dup, dup}})
	return plans
}

func testInjectors(n *nn.Network, p Plan) []Injector {
	byz := Byzantine{C: 0.7, Sem: core.DeviationCap, Sign: map[NeuronFault]float64{}, SynSign: map[SynapseFault]float64{}}
	for i, f := range p.Neurons {
		if i%2 == 0 {
			byz.Sign[f] = -1
		}
	}
	for i, f := range p.Synapses {
		if i%2 == 1 {
			byz.SynSign[f] = -1
		}
	}
	crashSet := map[NeuronFault]bool{}
	for i, f := range p.Neurons {
		if i%2 == 0 {
			crashSet[f] = true
		}
	}
	flip, err := NewBitFlip(n, 8, 6)
	if err != nil {
		panic(err)
	}
	// A heterogeneous dispatch routing alternating faults to different
	// registry models, the rest falling back to crash.
	disp := Dispatch{Neurons: map[NeuronFault]Injector{}, Synapses: map[SynapseFault]Injector{}}
	for i, f := range p.Neurons {
		switch i % 3 {
		case 0:
			disp.Neurons[f] = StuckAt{V: 0.3}
		case 1:
			disp.Neurons[f] = SignFlip{}
		}
	}
	for i, f := range p.Synapses {
		if i%2 == 0 {
			disp.Synapses[f] = flip
		}
	}
	return []Injector{
		Crash{},
		byz,
		Byzantine{C: 1.3, Sem: core.TransmissionCap},
		Mixed{CrashSet: crashSet, Byz: Byzantine{C: 0.5, Sem: core.DeviationCap}},
		StuckAt{V: 0.6},
		SignFlip{},
		flip,
		disp,
	}
}

// TestCompiledMatchesReference checks the compiled engine against the
// reference implementation bit for bit, across activations, biases,
// plans and injectors, on both evaluation entry points. The last net's
// layers (256x128, 128x256) sit at the 1<<15 parallel-matvec
// threshold, so the chunked lanes dispatch is compared too; it draws
// from its own stream so the small nets' draws stay as they were.
func TestCompiledMatchesReference(t *testing.T) {
	r := rng.New(11)
	nets := []*nn.Network{
		nn.NewRandom(r, nn.Config{InputDim: 3, Widths: []int{9, 7, 5}, Act: activation.NewSigmoid(1)}, 0.8),
		nn.NewRandom(r, nn.Config{InputDim: 2, Widths: []int{6, 6}, Act: activation.NewTanh(0.5), Bias: true}, 0.6),
		nn.NewRandom(r, nn.Config{InputDim: 4, Widths: []int{8}, Act: activation.NewHardSigmoid(2), Bias: true}, 1.1),
		nn.NewRandom(rng.New(13), nn.Config{InputDim: 128, Widths: []int{256, 128}, Act: activation.NewSigmoid(1), Bias: true}, 0.1),
	}
	for _, net := range nets {
		inputs := metrics.RandomPoints(r, net.InputDim, 6)
		traces := CleanTraces(net, inputs)
		for pi, p := range testPlans(r, net) {
			cp := Compile(net, p)
			for ii, inj := range testInjectors(net, p) {
				for xi, x := range inputs {
					want := forwardReference(net, p, inj, x)
					if got := cp.Forward(inj, x); got != want {
						t.Fatalf("net %s plan %d inj %d input %d: Forward %v != reference %v",
							net.Act.Name(), pi, ii, xi, got, want)
					}
					if got := Forward(net, p, inj, x); got != want {
						t.Fatalf("plan %d inj %d: package Forward diverged", pi, ii)
					}
					wantErr := math.Abs(net.Forward(x) - want)
					if got := cp.ErrorOn(inj, x); got != wantErr {
						t.Fatalf("net %s plan %d inj %d input %d: ErrorOn %v != reference %v",
							net.Act.Name(), pi, ii, xi, got, wantErr)
					}
					if got := cp.ErrorOnTrace(inj, traces[xi]); got != wantErr {
						t.Fatalf("net %s plan %d inj %d input %d: ErrorOnTrace %v != reference %v",
							net.Act.Name(), pi, ii, xi, got, wantErr)
					}
				}
			}
		}
	}
}

// TestCompiledMatchesReferenceRandomByzantine pins the stochastic
// injector: identical RNG streams through both paths must yield
// identical outputs (the engine preserves the injector call order).
func TestCompiledMatchesReferenceRandomByzantine(t *testing.T) {
	r := rng.New(23)
	net := nn.NewRandom(r, nn.Config{InputDim: 3, Widths: []int{7, 6}, Act: activation.NewSigmoid(1)}, 0.7)
	p := RandomNeuronPlan(r, net, []int{2, 1})
	p.Synapses = RandomSynapsePlan(r, net, []int{1, 0, 1}).Synapses
	x := []float64{0.2, 0.8, 0.5}
	for _, sem := range []core.CapSemantics{core.DeviationCap, core.TransmissionCap} {
		want := forwardReference(net, p, RandomByzantine{C: 1, Sem: sem, R: rng.New(99)}, x)
		got := Compile(net, p).Forward(RandomByzantine{C: 1, Sem: sem, R: rng.New(99)}, x)
		if got != want {
			t.Fatalf("sem %v: compiled %v != reference %v", sem, got, want)
		}
	}
}

// TestCompiledReset checks that re-indexing a compiled plan in place
// matches compiling from scratch.
func TestCompiledReset(t *testing.T) {
	r := rng.New(31)
	net := nn.NewRandom(r, nn.Config{InputDim: 2, Widths: []int{8, 8}, Act: activation.NewSigmoid(1)}, 0.5)
	x := []float64{0.3, 0.9}
	cp := Compile(net, Plan{})
	for i := 0; i < 10; i++ {
		p := RandomNeuronPlan(r, net, []int{2, 2})
		cp.Reset(p)
		if got, want := cp.Forward(Crash{}, x), Compile(net, p).Forward(Crash{}, x); got != want {
			t.Fatalf("iteration %d: reset plan %v != fresh compile %v", i, got, want)
		}
	}
}

// TestCompiledSteadyStateAllocs asserts the engine's core promise: the
// steady state of every evaluation entry point allocates nothing, under
// EVERY deterministic model in the fault registry (the contract recorded
// in BENCH_2.json). Stochastic models are exercised too — their rng
// draws are also allocation-free — but the guarantee the registry
// documents is for the deterministic ones.
func TestCompiledSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-instrumented sync.Pool allocates on Get; the contract is measured without the detector")
	}
	r := rng.New(41)
	net := nn.NewRandom(r, nn.Config{InputDim: 4, Widths: []int{16, 16, 16}, Act: activation.NewSigmoid(1), Bias: true}, 0.5)
	p := AdversarialNeuronPlan(net, []int{2, 2, 2})
	p.Synapses = AdversarialSynapsePlan(net, []int{1, 1, 1, 1}).Synapses
	cp := Compile(net, p)
	x := []float64{0.1, 0.4, 0.7, 0.2}
	tr := net.ForwardTrace(x)

	for _, m := range Models() {
		params := Params{C: 1, Sem: core.DeviationCap, Value: 0.5, Prob: 0.5, Bits: 8, Bit: 6, Net: net, R: r.Split()}
		inj, err := m.New(params)
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

// TestCompiledMatchesReferenceStochasticModels pins the stochastic
// registry models the way the RandomByzantine test does: identical rng
// streams through the compiled and reference paths must yield identical
// outputs.
func TestCompiledMatchesReferenceStochasticModels(t *testing.T) {
	r := rng.New(59)
	net := nn.NewRandom(r, nn.Config{InputDim: 3, Widths: []int{7, 6}, Act: activation.NewSigmoid(1)}, 0.7)
	p := RandomNeuronPlan(r, net, []int{2, 1})
	p.Synapses = RandomSynapsePlan(r, net, []int{1, 0, 1}).Synapses
	x := []float64{0.2, 0.8, 0.5}
	for _, m := range Models() {
		if m.Deterministic {
			continue
		}
		build := func(seed uint64) Injector {
			inj, err := m.New(Params{C: 1, Sem: core.DeviationCap, Prob: 0.5, Net: net, R: rng.New(seed)})
			if err != nil {
				t.Fatalf("%s: %v", m.Name, err)
			}
			return inj
		}
		want := forwardReference(net, p, build(99), x)
		if got := Compile(net, p).Forward(build(99), x); got != want {
			t.Fatalf("%s: compiled %v != reference %v", m.Name, got, want)
		}
	}
}

// TestCompiledPanicsOnBadLayer mirrors the panic contract of the plan
// indexing helpers.
func TestCompiledPanicsOnBadLayer(t *testing.T) {
	r := rng.New(43)
	net := nn.NewRandom(r, nn.Config{InputDim: 2, Widths: []int{4}, Act: activation.NewSigmoid(1)}, 0.5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range layer")
		}
	}()
	Compile(net, Plan{Neurons: []NeuronFault{{Layer: 3, Index: 0}}})
}
