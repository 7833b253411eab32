package fault

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/activation"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/parallel"
)

// NominalFree is implemented by injectors whose NeuronValue ignores its
// nominal argument (crash failures, transmission-capped Byzantine
// values). For such injectors the evaluation engine skips the clean
// reference trace entirely — the damaged pass is the only pass.
type NominalFree interface {
	NominalFree() bool
}

// NominalFree reports that crashed neurons emit 0 regardless of their
// nominal output.
func (Crash) NominalFree() bool { return true }

// NominalFree reports whether the Byzantine value depends on the clean
// nominal output (it does not under TransmissionCap, where faulty
// components emit extreme values of the allowed range).
func (b Byzantine) NominalFree() bool { return b.Sem == core.TransmissionCap }

// NominalFree is the random analogue of Byzantine.NominalFree.
func (b RandomByzantine) NominalFree() bool { return b.Sem == core.TransmissionCap }

// NominalFree delegates to the Byzantine component: crash-set neurons
// emit 0 regardless of nominal.
func (m Mixed) NominalFree() bool { return m.Byz.NominalFree() }

// needsNominal reports whether inj requires clean nominal outputs.
func needsNominal(inj Injector) bool {
	nf, ok := inj.(NominalFree)
	return !(ok && nf.NominalFree())
}

// CompiledPlan is a Plan indexed once for repeated evaluation against
// any nn.Model — dense, convolutional or graph: per-layer fault lists,
// the divergence frontier (levels off it are shared between the clean
// and damaged sweeps), and per-layer skip segments for neurons whose
// received sums are overridden anyway. For conv models the plan's
// neuron indices address flattened feature-map positions and its
// synapse (to, from) pairs address the virtual dense connectivity the
// lowering would materialise — shared kernel-value faults expand to
// their tied instances via conv's KernelPlan — so evaluation is native:
// no lowered matrix exists on any path, yet every result is
// bit-identical to evaluating the lowered network.
//
// A CompiledPlan is immutable after Compile and safe for concurrent use
// by multiple goroutines (evaluation scratch comes from an internal
// pool), provided the injector passed to each call is itself safe for
// concurrent use. Reset re-indexes a new plan in place and must not race
// with concurrent evaluations.
type CompiledPlan struct {
	net  nn.Model
	plan Plan
	// dag is net's level view (nn.DAGOf): Reset computes the divergence
	// frontier over it and eval sweeps it, layered models as the chain
	// case, with synapse faults addressed by in-edge ordinal.
	dag nn.DAGModel

	// neuronsAt[l] / synapsesAt[l] hold the faults acting on layer l
	// (neurons: 1..L; synapses: 1..L+1).
	neuronsAt  [][]NeuronFault
	synapsesAt [][]SynapseFault
	// overridden[l] lists, sorted, the neuron indices of layer l whose
	// outputs are replaced by the injector — their received sums and
	// activations need not be computed.
	overridden [][]int
	// diverge is the first level on the divergence frontier (L+1 if only
	// output synapses are faulty or the plan is empty), where BatchPlan
	// starts its sweep. lastNominal is the deepest layer with neuron
	// faults (0 if none).
	diverge     int
	lastNominal int
	// frontier[l] reports whether level l's faulted outputs can differ
	// from the clean pass — the DAG generalisation of the single diverge
	// layer: a level is on the divergence frontier if it hosts faults or
	// reads a frontier level. srcDirty[l] reports the latter alone (some
	// source level is on the frontier).
	frontier []bool
	srcDirty []bool
}

// Compile indexes p against m for repeated evaluation. It panics if the
// plan addresses layers outside the model (use Plan.Validate for full
// validation with errors).
func Compile(m nn.Model, p Plan) *CompiledPlan {
	cp := &CompiledPlan{net: m, dag: nn.DAGOf(m)}
	cp.Reset(p)
	return cp
}

// Plan returns the plan as passed to Compile/Reset. The fault slices
// are retained, not copied: if the caller rebuilds the plan in a reused
// buffer (the allocation-free Reset sweep), Plan reflects the buffer's
// current contents, not the compiled index — copy the slices before
// mutating them if the original plan must stay readable.
func (cp *CompiledPlan) Plan() Plan { return cp.plan }

// Reset re-indexes cp for a new plan, reusing the index buffers — the
// allocation-free way to sweep many plans over one model (the plan's
// slices are read during Reset and retained only for Plan; evaluation
// never touches them again). Not safe to call while other goroutines
// evaluate cp.
func (cp *CompiledPlan) Reset(p Plan) {
	L := cp.net.NumLayers()
	if cap(cp.neuronsAt) < L+2 {
		cp.neuronsAt = make([][]NeuronFault, L+2)
		cp.synapsesAt = make([][]SynapseFault, L+2)
		cp.overridden = make([][]int, L+2)
	}
	cp.neuronsAt = cp.neuronsAt[:L+2]
	cp.synapsesAt = cp.synapsesAt[:L+2]
	cp.overridden = cp.overridden[:L+2]
	for l := range cp.neuronsAt {
		cp.neuronsAt[l] = cp.neuronsAt[l][:0]
		cp.synapsesAt[l] = cp.synapsesAt[l][:0]
		cp.overridden[l] = cp.overridden[l][:0]
	}
	for _, f := range p.Neurons {
		if f.Layer < 1 || f.Layer > L {
			panic(fmt.Sprintf("fault: neuron fault at layer %d outside 1..%d", f.Layer, L))
		}
		cp.neuronsAt[f.Layer] = append(cp.neuronsAt[f.Layer], f)
		cp.overridden[f.Layer] = append(cp.overridden[f.Layer], f.Index)
	}
	for _, f := range p.Synapses {
		if f.Layer < 1 || f.Layer > L+1 {
			panic(fmt.Sprintf("fault: synapse fault at layer %d outside 1..%d", f.Layer, L+1))
		}
		cp.synapsesAt[f.Layer] = append(cp.synapsesAt[f.Layer], f)
	}
	cp.lastNominal = 0
	for l := 1; l <= L; l++ {
		sort.Ints(cp.overridden[l])
		// Compact duplicates: a (not Validate-d) plan may list a neuron
		// twice; the override loop still applies every entry in plan
		// order, but the skip segments must name each row once.
		uniq := cp.overridden[l][:0]
		for i, v := range cp.overridden[l] {
			if i == 0 || v != cp.overridden[l][i-1] {
				uniq = append(uniq, v)
			}
		}
		cp.overridden[l] = uniq
		if len(cp.neuronsAt[l]) > 0 {
			cp.lastNominal = l
		}
	}
	if cap(cp.frontier) < L+2 {
		cp.frontier = make([]bool, L+2)
		cp.srcDirty = make([]bool, L+2)
	}
	cp.frontier = cp.frontier[:L+2]
	cp.srcDirty = cp.srcDirty[:L+2]
	cp.frontier[0], cp.srcDirty[0] = false, false
	cp.diverge = L + 1
	for l := 1; l <= L+1; l++ {
		dirty := false
		for _, v := range cp.dag.SrcLevels(l) {
			if v >= 1 && cp.frontier[v] {
				dirty = true
				break
			}
		}
		cp.srcDirty[l] = dirty
		cp.frontier[l] = dirty || len(cp.neuronsAt[l]) > 0 || len(cp.synapsesAt[l]) > 0
		if cp.frontier[l] && cp.diverge > L {
			cp.diverge = l
		}
	}
	cp.plan = p
}

// planEval is the reusable scratch of one evaluation: per-layer buffers
// for the damaged sweep and (when needed) the clean reference sweep.
type planEval struct {
	// sizedFor tags the model the buffers currently fit, skipping the
	// per-layer size walk on the hot path.
	sizedFor nn.Model
	fault    [][]float64
	clean    [][]float64
	// levelsF/levelsC are the per-level output pointers of the sweep
	// (index v = level v; entry 0 is the input).
	levelsF [][]float64
	levelsC [][]float64
	// dsts/srcs are the clean and damaged lanes of the two-lane kernel
	// call on frontier levels that need both passes.
	dsts [2][]float64
	srcs [2][][]float64
}

func (e *planEval) ensure(m nn.Model) {
	if e.sizedFor == m {
		return
	}
	e.fault = nn.EnsureLayerSlices(m, 1, e.fault)
	e.clean = nn.EnsureLayerSlices(m, 1, e.clean)
	L := m.NumLayers()
	if cap(e.levelsF) < L+1 {
		e.levelsF = make([][]float64, L+1)
		e.levelsC = make([][]float64, L+1)
	}
	e.levelsF = e.levelsF[:L+1]
	e.levelsC = e.levelsC[:L+1]
	e.sizedFor = m
}

// evalPool recycles evaluation scratch across plans, goroutines and
// models (buffers are grow-only).
var evalPool = sync.Pool{New: func() any { return new(planEval) }}

// Forward evaluates the damaged neural function Ffail on x. Identical in
// semantics to the package-level Forward, but the fault index is reused
// across calls and the steady state allocates nothing. The clean
// reference trace is only computed as deep as the injector actually
// needs nominal values (not at all for crash failures).
func (cp *CompiledPlan) Forward(inj Injector, x []float64) float64 {
	e := evalPool.Get().(*planEval)
	f, _ := cp.eval(e, inj, x, nil, false)
	evalPool.Put(e)
	return f
}

// ErrorOn returns |Fneu(x) - Ffail(x)| with the clean and damaged sweeps
// fused: levels off the divergence frontier are computed once and
// shared, and on it each weight is read once for both sweeps (two lanes
// of the model's multi-lane kernel).
func (cp *CompiledPlan) ErrorOn(inj Injector, x []float64) float64 {
	e := evalPool.Get().(*planEval)
	f, c := cp.eval(e, inj, x, nil, true)
	evalPool.Put(e)
	return math.Abs(c - f)
}

// ErrorOnTrace returns |Fneu - Ffail| on tr.Input given the input's
// precomputed clean trace: only the damaged sweep runs, and only on the
// plan's divergence frontier. Use CleanTraces to evaluate a fixed
// input set once and sweep many plans over it.
func (cp *CompiledPlan) ErrorOnTrace(inj Injector, tr *nn.Trace) float64 {
	e := evalPool.Get().(*planEval)
	f, _ := cp.eval(e, inj, tr.Input, tr, false)
	evalPool.Put(e)
	return math.Abs(tr.Output - f)
}

// eval is the level-scheduled sweep over cp.dag, for every model (a
// layered model runs as the chain case). Every level stays resident so
// later levels can read it. Levels off the divergence frontier are
// bitwise identical between the clean and damaged passes and are
// computed once (or taken straight from the precomputed trace); levels
// on it branch. Synapse faults are addressed by in-edge ordinal
// (nn.DAGModel), so a fault can sit on a skip edge as naturally as on a
// previous-level one. tr, when non-nil, supplies the clean trace (no
// clean computation happens at all); needClean requests the clean
// output even without a trace. Returns the damaged output and, when
// available, the clean output.
func (cp *CompiledPlan) eval(e *planEval, inj Injector, x []float64, tr *nn.Trace, needClean bool) (faulted, clean float64) {
	m := cp.dag
	L := m.NumLayers()
	act := m.Activation()
	e.ensure(cp.net)

	// How deep the clean sweep must run: to the end for the fused error,
	// to the deepest neuron fault when the injector consumes nominal
	// values, not at all alongside a precomputed trace.
	cleanUpTo := 0
	if tr == nil {
		if needClean {
			cleanUpTo = L
		} else if needsNominal(inj) {
			cleanUpTo = cp.lastNominal
		}
	}
	// Crashed neurons always emit 0: write it directly instead of an
	// interface call per fault.
	_, isCrash := inj.(Crash)

	ysF, ysC := e.levelsF, e.levelsC
	ysF[0], ysC[0] = x, x
	for l := 1; l <= L; l++ {
		sF := e.fault[l-1]
		switch {
		case tr != nil:
			ysC[l] = tr.Outputs[l-1]
			if !cp.frontier[l] {
				ysF[l] = tr.Outputs[l-1]
				continue
			}
			if len(cp.synapsesAt[l]) == 0 && !cp.srcDirty[l] {
				// Every source is clean and no synapse fault perturbs the
				// sums: non-overridden outputs are bitwise the trace's.
				copy(sF, tr.Outputs[l-1])
				cp.overrideNeurons(inj, isCrash, l, sF, tr.Outputs[l-1])
				ysF[l] = sF
				continue
			}
			m.LevelSums(l, sF, ysF, cp.overridden[l])
		case !cp.frontier[l]:
			// Off the frontier: one sweep serves both passes (all sources
			// of l are themselves off the frontier, so ysF already holds
			// their clean outputs).
			m.LevelSums(l, sF, ysF, nil)
			activation.Eval(act, sF, sF)
			ysF[l], ysC[l] = sF, sF
			continue
		case l <= cleanUpTo:
			// Clean and damaged sums as two lanes of one kernel call, so
			// the level's weights are read once for both passes. The
			// overridden rows are computed and then overwritten.
			sC := e.clean[l-1]
			e.dsts = [2][]float64{sC, sF}
			e.srcs = [2][][]float64{ysC, ysF}
			nn.LevelSumsLanesModel(m, l, e.dsts[:], e.srcs[:])
			activation.Eval(act, sC, sC)
			ysC[l] = sC
		default:
			m.LevelSums(l, sF, ysF, cp.overridden[l])
		}
		for _, f := range cp.synapsesAt[l] {
			sl, si, w := m.InEdge(l, f.To, f.From)
			sF[f.To] += inj.SynapseDelta(f, w*ysF[sl][si])
		}
		evalSkip(act, sF, cp.overridden[l])
		var nomC []float64
		switch {
		case tr != nil:
			nomC = tr.Outputs[l-1]
		case l <= cleanUpTo:
			nomC = ysC[l]
		}
		cp.overrideNeurons(inj, isCrash, l, sF, nomC)
		ysF[l] = sF
	}

	faulted = m.OutputSumLevels(ysF)
	for _, f := range cp.synapsesAt[L+1] {
		sl, si, w := m.InEdge(L+1, f.To, f.From)
		faulted += inj.SynapseDelta(f, w*ysF[sl][si])
	}
	switch {
	case tr != nil:
		clean = tr.Output
	case needClean:
		clean = m.OutputSumLevels(ysC)
	}
	return faulted, clean
}

// overrideNeurons replaces layer l's faulty outputs in sF; nomC, when
// non-nil, supplies the clean nominal outputs (injectors that never
// consume nominals receive a fixed 0).
func (cp *CompiledPlan) overrideNeurons(inj Injector, isCrash bool, l int, sF, nomC []float64) {
	if isCrash {
		for _, f := range cp.neuronsAt[l] {
			sF[f.Index] = 0
		}
		return
	}
	for _, f := range cp.neuronsAt[l] {
		nom := 0.0
		if nomC != nil {
			nom = nomC[f.Index]
		}
		sF[f.Index] = inj.NeuronValue(f, nom)
	}
}

// evalSkip applies the activation in place to every entry of s except
// the (sorted) skipped indices, whose values are overridden afterwards.
func evalSkip(f activation.Func, s []float64, skip []int) {
	if len(skip) == 0 {
		activation.Eval(f, s, s)
		return
	}
	lo := 0
	for _, idx := range skip {
		if idx > lo {
			activation.Eval(f, s[lo:idx], s[lo:idx])
		}
		lo = idx + 1
	}
	if lo < len(s) {
		activation.Eval(f, s[lo:], s[lo:])
	}
}

// CleanTraces evaluates the fault-free trace of every input once, in
// parallel — the shared reference for sweeping many plans over a fixed
// input set (Monte Carlo profiles, sign searches, exhaustive
// configuration searches).
func CleanTraces(m nn.Model, inputs [][]float64) []*nn.Trace {
	out := make([]*nn.Trace, len(inputs))
	parallel.For(len(inputs), func(i int) { out[i] = nn.TraceModel(m, inputs[i]) })
	return out
}
