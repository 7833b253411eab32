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
// any nn.Model — dense or convolutional: per-layer fault lists, the
// first divergent layer (everything before it is shared between the
// clean and damaged sweeps), and per-layer skip segments for neurons
// whose received sums are overridden anyway. For conv models the plan's
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
	// dag is net's level view (nn.DAGOf), over which Reset computes the
	// divergence frontier. Native DAG models also evaluate on it
	// (evalDAG, synapse faults addressed by in-edge ordinal); layered
	// models keep eval's fused clean+damaged layer sweep.
	dag    nn.DAGModel
	native bool

	// neuronsAt[l] / synapsesAt[l] hold the faults acting on layer l
	// (neurons: 1..L; synapses: 1..L+1).
	neuronsAt  [][]NeuronFault
	synapsesAt [][]SynapseFault
	// overridden[l] lists, sorted, the neuron indices of layer l whose
	// outputs are replaced by the injector — their received sums and
	// activations need not be computed.
	overridden [][]int
	// diverge is the first hidden layer whose outputs can differ from the
	// clean pass (L+1 if only output synapses are faulty or the plan is
	// empty). lastNominal is the deepest layer with neuron faults (0 if
	// none).
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
	_, native := m.(nn.DAGModel)
	cp := &CompiledPlan{net: m, dag: nn.DAGOf(m), native: native}
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
	cp.diverge = L + 1
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
		if len(cp.neuronsAt[l]) > 0 || len(cp.synapsesAt[l]) > 0 {
			if l < cp.diverge {
				cp.diverge = l
			}
		}
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
	// levelsF/levelsC are the per-level output pointers of the DAG sweep
	// (index v = level v; entry 0 is the input).
	levelsF [][]float64
	levelsC [][]float64
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
// fused: layers before the first fault are computed once and shared, and
// from there each weight is read once for both sweeps.
func (cp *CompiledPlan) ErrorOn(inj Injector, x []float64) float64 {
	e := evalPool.Get().(*planEval)
	f, c := cp.eval(e, inj, x, nil, true)
	evalPool.Put(e)
	return math.Abs(c - f)
}

// ErrorOnTrace returns |Fneu - Ffail| on tr.Input given the input's
// precomputed clean trace: only the damaged sweep runs, and it starts at
// the plan's first divergent layer. Use CleanTraces to evaluate a fixed
// input set once and sweep many plans over it.
func (cp *CompiledPlan) ErrorOnTrace(inj Injector, tr *nn.Trace) float64 {
	e := evalPool.Get().(*planEval)
	f, _ := cp.eval(e, inj, tr.Input, tr, false)
	evalPool.Put(e)
	return math.Abs(tr.Output - f)
}

// eval runs the fused sweep. tr, when non-nil, supplies the clean trace
// (no clean computation happens at all); needClean requests the clean
// output even without a trace. Returns the damaged output and, when
// available, the clean output.
func (cp *CompiledPlan) eval(e *planEval, inj Injector, x []float64, tr *nn.Trace, needClean bool) (faulted, clean float64) {
	if cp.native {
		return cp.evalDAG(e, inj, x, tr, needClean)
	}
	m := cp.net
	L := m.NumLayers()
	act := m.Activation()
	e.ensure(m)

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

	yF, yC := x, x
	l := 1
	if tr != nil && cp.diverge > 1 {
		// Shared prefix is already on the trace: jump to the divergence.
		l = cp.diverge
		if l > L+1 {
			l = L + 1
		}
		if l > 1 {
			yF = tr.Outputs[l-2]
		}
	}
	for ; l <= L; l++ {
		sF := e.fault[l-1]
		switch {
		case l < cp.diverge:
			// Shared prefix: one sweep serves both paths.
			m.LayerSums(l, sF, yF, nil)
			activation.Eval(act, sF, sF)
			yF, yC = sF, sF
			continue
		case tr == nil && l <= cleanUpTo && !sameSlice(yF, yC):
			// Diverged and clean still needed: one fused sweep computes
			// both sums.
			sC := e.clean[l-1]
			m.LayerSums2(l, sF, yF, sC, yC)
			activation.Eval(act, sC, sC)
			yC = sC
		case tr == nil && l <= cleanUpTo:
			// First divergent layer: received sums are still identical,
			// so compute them once and branch the activations.
			m.LayerSums(l, sF, yF, nil)
			sC := e.clean[l-1]
			copy(sC, sF)
			activation.Eval(act, sC, sC)
			yC = sC
		case tr != nil && l == cp.diverge && len(cp.synapsesAt[l]) == 0:
			// First divergent layer alongside a precomputed trace, no
			// synapse faults: the received sums equal the clean ones, so
			// every non-overridden output is bitwise the trace's — copy
			// and override, skipping the matvec and the activations.
			copy(sF, tr.Outputs[l-1])
			if isCrash {
				for _, f := range cp.neuronsAt[l] {
					sF[f.Index] = 0
				}
			} else {
				for _, f := range cp.neuronsAt[l] {
					sF[f.Index] = inj.NeuronValue(f, tr.Outputs[l-1][f.Index])
				}
			}
			yF = sF
			continue
		default:
			m.LayerSums(l, sF, yF, cp.overridden[l])
		}
		for _, f := range cp.synapsesAt[l] {
			transmitted := m.Weight(l, f.To, f.From) * yF[f.From]
			sF[f.To] += inj.SynapseDelta(f, transmitted)
		}
		evalSkip(act, sF, cp.overridden[l])
		if isCrash {
			for _, f := range cp.neuronsAt[l] {
				sF[f.Index] = 0
			}
		} else {
			for _, f := range cp.neuronsAt[l] {
				// The clean output exists wherever the injector can read
				// it: injectors that never consume nominals (cleanUpTo
				// stopped short) receive a fixed 0.
				nom := 0.0
				if tr != nil {
					nom = tr.Outputs[l-1][f.Index]
				} else if l <= cleanUpTo {
					nom = yC[f.Index]
				}
				sF[f.Index] = inj.NeuronValue(f, nom)
			}
		}
		yF = sF
	}

	faulted = m.OutputSum(yF)
	for _, f := range cp.synapsesAt[L+1] {
		transmitted := m.Weight(L+1, f.To, f.From) * yF[f.From]
		faulted += inj.SynapseDelta(f, transmitted)
	}
	switch {
	case tr != nil:
		clean = tr.Output
	case needClean:
		clean = m.OutputSum(yC)
	}
	return faulted, clean
}

// sameSlice reports whether a and b share the same backing view.
func sameSlice(a, b []float64) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
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
