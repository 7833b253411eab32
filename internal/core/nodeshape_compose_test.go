package core_test

// Soundness tests for the per-node certification layer: NodeShape
// prices faults on arbitrary-topology models (where the layered Shape
// algebra is unsound), and Compose stitches independently certified
// spans into a bound for the whole network. Both are checked the same
// way as the layered Fep: measured damaged-network errors must never
// exceed the closed-form bounds.

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/activation"
	"repro/internal/conv"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/rng"
)

func randomInputs(r *rng.Rand, d, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		x := make([]float64, d)
		r.Floats(x, 0, 1)
		out[i] = x
	}
	return out
}

func randomAct(r *rng.Rand) activation.Func {
	switch r.Intn(3) {
	case 0:
		return activation.NewSigmoid(r.Range(0.25, 3))
	case 1:
		return activation.NewTanh(r.Range(0.25, 2))
	default:
		return activation.NewHardSigmoid(r.Range(0.5, 2))
	}
}

func randomSkipNet(r *rng.Rand) *graph.Net {
	L := r.Intn(3) + 1
	widths := make([]int, L)
	for i := range widths {
		widths[i] = r.Intn(5) + 2
	}
	return graph.NewSmallWorld(r, r.Intn(4)+1, widths, randomAct(r), 2, r.Range(0, 0.8))
}

func randomFaults(r *rng.Rand, m nn.Model) []int {
	f := make([]int, m.NumLayers())
	for l := range f {
		f[l] = r.Intn(m.Width(l+1) + 1)
	}
	return f
}

func signedByzantine(r *rng.Rand, p fault.Plan, c float64) fault.Byzantine {
	inj := fault.Byzantine{C: c, Sem: core.DeviationCap, Sign: map[fault.NeuronFault]float64{}}
	for _, f := range p.Neurons {
		if r.Bool(0.5) {
			inj.Sign[f] = -1
		}
	}
	return inj
}

func TestNodeShapeFepSoundOnSkipGraphs(t *testing.T) {
	r := rng.New(211)
	for trial := 0; trial < 200; trial++ {
		g := randomSkipNet(r)
		ns, err := core.NodeShapeOf(g)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		faults := randomFaults(r, g)
		c := r.Range(0.1, 2)
		bound := ns.Fep(faults, c)
		plan := fault.RandomNeuronPlan(r, g, faults)
		inputs := randomInputs(r, g.InputDim, 15)

		measured := fault.MaxError(g, plan, signedByzantine(r, plan, c), inputs)
		if measured > bound*(1+1e-9)+1e-12 {
			t.Fatalf("trial %d: byzantine error %v exceeds NodeShape.Fep %v (faults %v)",
				trial, measured, bound, faults)
		}
		measured = fault.MaxErrorSeq(g, plan, fault.RandomByzantine{C: c, Sem: core.DeviationCap, R: r.Split()}, inputs)
		if measured > bound*(1+1e-9)+1e-12 {
			t.Fatalf("trial %d: random byzantine error %v exceeds NodeShape.Fep %v",
				trial, measured, bound)
		}
	}
}

func TestNodeShapeCrashFepSound(t *testing.T) {
	r := rng.New(223)
	for trial := 0; trial < 200; trial++ {
		g := randomSkipNet(r)
		ns, err := core.NodeShapeOf(g)
		if err != nil {
			t.Fatal(err)
		}
		faults := randomFaults(r, g)
		plan := fault.RandomNeuronPlan(r, g, faults)
		inputs := randomInputs(r, g.InputDim, 15)
		bound := ns.CrashFep(faults)
		measured := fault.MaxError(g, plan, fault.Crash{}, inputs)
		if measured > bound*(1+1e-9)+1e-12 {
			t.Fatalf("trial %d: crash error %v exceeds NodeShape.CrashFep %v (faults %v)",
				trial, measured, bound, faults)
		}
	}
}

func TestNodeShapeSynapseFepSound(t *testing.T) {
	r := rng.New(227)
	for trial := 0; trial < 200; trial++ {
		g := randomSkipNet(r)
		ns, err := core.NodeShapeOf(g)
		if err != nil {
			t.Fatal(err)
		}
		L := g.NumLayers()
		faults := make([]int, L+1)
		for l := 1; l <= L+1; l++ {
			if n := ns.SynapseCount(l); n > 0 {
				faults[l-1] = r.Intn(min(n, 4) + 1)
			}
		}
		c := r.Range(0.1, 2)
		bound := ns.SynapseFep(faults, c)
		plan := fault.RandomSynapsePlan(r, g, faults)
		inputs := randomInputs(r, g.InputDim, 10)
		// DeviationCap synapse faults land an additive ±c on the sum.
		measured := fault.MaxError(g, plan, fault.Byzantine{C: c, Sem: core.DeviationCap}, inputs)
		if measured > bound*(1+1e-9)+1e-12 {
			t.Fatalf("trial %d: synapse error %v exceeds NodeShape.SynapseFep %v (faults %v)",
				trial, measured, bound, faults)
		}
	}
}

// TestNodeShapeDeviationFepUniform pins the heterogeneous-cap bound to
// the uniform one when every cap is the same c.
func TestNodeShapeDeviationFepUniform(t *testing.T) {
	r := rng.New(229)
	for trial := 0; trial < 100; trial++ {
		g := randomSkipNet(r)
		ns, err := core.NodeShapeOf(g)
		if err != nil {
			t.Fatal(err)
		}
		faults := randomFaults(r, g)
		c := r.Range(0.1, 2)
		devs := make([][]float64, len(faults))
		for l, f := range faults {
			devs[l] = make([]float64, f)
			for i := range devs[l] {
				devs[l][i] = c
			}
		}
		got, want := ns.DeviationFep(devs), ns.Fep(faults, c)
		if math.Abs(got-want) > 1e-12*(1+want) {
			t.Fatalf("trial %d: DeviationFep %v != Fep %v for uniform caps", trial, got, want)
		}
	}
}

// TestComposeStitchedBoundSound is the acceptance criterion for the
// compositional certifier: certify the two halves of a network
// independently, Compose the certificates, and the stitched Fep must
// dominate the measured error of the monolith under any admissible
// fault assignment split across the halves.
func TestComposeStitchedBoundSound(t *testing.T) {
	r := rng.New(233)
	for trial := 0; trial < 150; trial++ {
		L := r.Intn(2) + 2 // at least two layers so a proper cut exists
		widths := make([]int, L)
		for i := range widths {
			widths[i] = r.Intn(5) + 2
		}
		var m nn.Model
		if r.Bool(0.5) {
			m = nn.NewRandom(r, nn.Config{
				InputDim: r.Intn(3) + 1,
				Widths:   widths,
				Act:      randomAct(r),
				Bias:     r.Bool(0.5),
			}, r.Range(0.2, 1.5))
		} else {
			m = graph.NewSmallWorld(r, r.Intn(3)+1, widths, randomAct(r), 2, r.Range(0, 0.6))
		}
		cuts := core.Cuts(m)
		var inner []int
		for _, v := range cuts {
			if v >= 1 && v <= L-1 {
				inner = append(inner, v)
			}
		}
		if len(inner) == 0 {
			continue // every interior level is spanned by a skip edge
		}
		cut := inner[r.Intn(len(inner))]
		faults := randomFaults(r, m)
		c := r.Range(0.1, 1.5)

		a, err := core.CertifySpan(m, 1, cut, faults[:cut], c)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		b, err := core.CertifySpan(m, cut+1, L+1, faults[cut:], c)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		st, err := core.Compose(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := st.Validate(); err != nil {
			t.Fatalf("trial %d: stitched certificate invalid: %v", trial, err)
		}
		if st.Out != 1 || st.In != m.Width(0) {
			t.Fatalf("trial %d: stitched certificate %dx%d", trial, st.In, st.Out)
		}
		bound := st.Fep[0]

		plan := fault.RandomNeuronPlan(r, m, faults)
		inputs := randomInputs(r, m.Width(0), 12)
		measured := fault.MaxError(m, plan, signedByzantine(r, plan, c), inputs)
		if measured > bound*(1+1e-9)+1e-12 {
			t.Fatalf("trial %d: monolith error %v exceeds stitched bound %v (cut %d, faults %v)",
				trial, measured, bound, cut, faults)
		}
		measured = fault.MaxErrorSeq(m, plan, fault.RandomByzantine{C: c, Sem: core.DeviationCap, R: r.Split()}, inputs)
		if measured > bound*(1+1e-9)+1e-12 {
			t.Fatalf("trial %d: monolith random error %v exceeds stitched bound %v",
				trial, measured, bound)
		}
	}
}

func TestCuts(t *testing.T) {
	r := rng.New(239)
	// Strictly layered models can be cut at every level.
	d := nn.NewRandom(r, nn.Config{InputDim: 2, Widths: []int{3, 4, 3}, Act: activation.NewSigmoid(1)}, 1)
	cuts := core.Cuts(d)
	if len(cuts) != 3 || cuts[0] != 1 || cuts[1] != 2 || cuts[2] != 3 {
		t.Fatalf("dense cuts = %v, want [1 2 3]", cuts)
	}
	// A skip edge removes exactly the levels it jumps over.
	for trial := 0; trial < 50; trial++ {
		g := randomSkipNet(r)
		got := map[int]bool{}
		for _, v := range core.Cuts(g) {
			got[v] = true
		}
		L := g.NumLayers()
		for v := 1; v <= L; v++ {
			crossed := false
			for t2 := v + 1; t2 <= L+1; t2++ {
				for to := 0; to < g.Width(t2); to++ {
					for e := 0; e < g.FanIn(t2, to); e++ {
						if sl, _, _ := g.InEdge(t2, to, e); sl < v {
							crossed = true
						}
					}
				}
			}
			if got[v] == crossed {
				t.Fatalf("trial %d: cut %d reported %v, crossing edges %v", trial, v, got[v], crossed)
			}
		}
	}
}

func TestCertifySpanRejectsCrossingEdges(t *testing.T) {
	r := rng.New(241)
	for trial := 0; trial < 100; trial++ {
		g := randomSkipNet(r)
		L := g.NumLayers()
		if L < 2 {
			continue
		}
		cuts := map[int]bool{}
		for _, v := range core.Cuts(g) {
			cuts[v] = true
		}
		for v := 1; v <= L-1; v++ {
			if cuts[v] {
				continue
			}
			faults := make([]int, L-v)
			if _, err := core.CertifySpan(g, v+1, L+1, faults, 0.5); err == nil {
				t.Fatalf("trial %d: span above non-cut %d certified", trial, v)
			}
		}
	}
}

// spanConv2D is a side×side conv2d net with two 3×3 layers of four
// filters each: its level 1 is the wide cut input of the upper span.
func spanConv2D(tb testing.TB, side int) nn.Model {
	tb.Helper()
	m, err := conv.NewRandom2D(rng.New(251), side, side, []int{3, 3}, []int{4, 4}, activation.NewSigmoid(1), 0.5, true)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// TestCertifySpanAllocsFlatInIn pins CertifySpan's memory at O(nodes):
// certifying the upper span [2, L+1] of a conv2d net — 1 output, an
// In as wide as level 1 — may allocate at most 64 bytes per node of
// levels lo-1..hi, however wide the cut is.
func TestCertifySpanAllocsFlatInIn(t *testing.T) {
	for _, side := range []int{12, 24} {
		m := spanConv2D(t, side)
		L := m.NumLayers()
		faults := make([]int, L-1)
		for i := range faults {
			faults[i] = 1
		}
		nodes := 0
		for v := 1; v <= L+1; v++ {
			nodes += m.Width(v)
		}
		certify := func() {
			if _, err := core.CertifySpan(m, 2, L+1, faults, 1); err != nil {
				t.Fatal(err)
			}
		}
		certify()
		const runs = 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			certify()
		}
		runtime.ReadMemStats(&after)
		perNode := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(nodes)
		if perNode > 64 {
			t.Errorf("%dx%d conv2d: CertifySpan allocates %.0f bytes per node, want <= 64", side, side, perNode)
		}
	}
}

// TestAmplificationSweepRejectsNaNWeight: a NaN weight must surface as
// an error from every certificate built on the reverse sweep, never as
// a NaN bound.
func TestAmplificationSweepRejectsNaNWeight(t *testing.T) {
	n := nn.NewRandom(rng.New(257), nn.Config{InputDim: 3, Widths: []int{5, 4, 3}, Act: activation.NewSigmoid(1)}, 1)
	n.Hidden[1].Set(2, 1, math.NaN())
	faults := []int{1, 1, 1}
	if _, err := core.NodeShapeOf(n); err == nil {
		t.Error("NodeShapeOf accepted a NaN weight")
	}
	if _, err := core.NewSubtreeBounder(n, faults); err == nil {
		t.Error("NewSubtreeBounder accepted a NaN weight")
	}
	for _, lo := range []int{1, 2} {
		if _, err := core.CertifySpan(n, lo, 4, faults[lo-1:], 1); err == nil {
			t.Errorf("CertifySpan [%d, 4] accepted a NaN weight", lo)
		}
	}
}

// BenchmarkCertifySpan certifies both spans of every interior cut of a
// 24×24 conv2d net, as `neurofail bounds` does.
func BenchmarkCertifySpan(b *testing.B) {
	m := spanConv2D(b, 24)
	L := m.NumLayers()
	faults := make([]int, L)
	for i := range faults {
		faults[i] = 1
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, cut := range core.Cuts(m) {
			if cut > L-1 {
				continue
			}
			if _, err := core.CertifySpan(m, 1, cut, faults[:cut], 1); err != nil {
				b.Fatal(err)
			}
			if _, err := core.CertifySpan(m, cut+1, L+1, faults[cut:], 1); err != nil {
				b.Fatal(err)
			}
		}
	}
}
