package fault

import (
	"fmt"
	"math"

	"repro/internal/activation"
	"repro/internal/nn"
)

// BatchLanes is the default lane count of the batched plan engine: 8
// damaged sweeps per matrix pass (two quad-lane kernel groups), enough
// to amortise the matrix traffic that bounds the scalar engine without
// outgrowing L1 with lane state.
const BatchLanes = 8

// BatchPlan evaluates P compiled plans against one model as a single
// multi-lane sweep, level-scheduled over the model's nn.DAGOf view. The
// clean prefix is shared: each lane carries a per-level pointer array
// in which levels its faults leave unchanged alias the input's
// precomputed clean trace and cost nothing. A lane whose level
// changes in full joins the level's multi-lane kernel — each level's
// weights stream from cache once per batch of lanes instead of once per
// plan (the dense lanes matvec, the CSR lanes gather on graph models),
// which is where the structural speedup over the one-at-a-time engine
// comes from.
//
// Reset gives every lane a compute set per level: the rows that carry a
// synapse fault or read a changed node (one computed or overridden) of
// an earlier level. A row outside it reads only clean values, so its
// sum is exactly the clean trace's. A lane whose compute set leaves
// some non-overridden row clean takes the row path instead of the
// kernel: it copies the trace level, computes its compute set alone,
// and applies synapse deltas, activation and overrides to it. On models
// with a reader index (nn.RowSummer: sparse graphs) the compute set is
// forward reachability from the plan's faults, built in O(faults ×
// fan-out); on others (dense, conv) it is the per-level rule — empty on
// a level with clean sources and no synapse faults (copy the trace,
// override the faulty neurons), else the whole level.
//
// Per lane the arithmetic replays CompiledPlan.ErrorOnTrace exactly
// (same kernels, same accumulation order, same fault-application
// order), so batched float64 results are bit-identical to the
// one-at-a-time oracle for every injector.
//
// A BatchPlan is NOT safe for concurrent use: it owns its lane scratch.
// Give each worker its own (the sharded sweeps in measure.go and
// serve's Monte Carlo do).
type BatchPlan struct {
	net   nn.Model
	dag   nn.DAGModel // nn.DAGOf(net): the level view the sweep runs on
	lanes []*CompiledPlan

	active int
	sc     nn.BatchScratch
	// dsts is the per-level kernel view of the live lanes' outputs;
	// laneOf maps a kernel slot back to its lane; trs holds each lane's
	// clean trace for the current evaluation.
	dsts   [][]float64
	laneOf []int
	trs    []*nn.Trace
	// levels[p][v] is lane p's pointer to level v's outputs during a
	// sweep (entry 0 the input; clean levels alias the lane's trace,
	// frontier levels the lane's scratch buffer); srcs is the kernel's
	// per-slot view of the live lanes' level arrays.
	levels [][][]float64
	srcs   [][][]float64

	// sets[p] is lane p's per-level compute set. rs is the model's
	// reader index (nil without one); rowBase[l] numbers level l's row 0
	// in it, and mark flags the rows of the set being built (all false
	// between builds).
	sets    []laneSet
	rs      nn.RowSummer
	rowBase []int
	mark    []bool
}

// laneSet is one lane's compute sets: rows[l] lists the rows of level l
// that read a changed node or carry a synapse fault, and kernel[l]
// reports that they cover every non-overridden row, so the lane joins
// the level's multi-lane kernel.
type laneSet struct {
	rows   [][]int32
	kernel []bool
}

// CompileBatch builds a batched evaluator with the given lane capacity
// (0 or negative selects BatchLanes). Load plans with Reset or
// ResetShared before evaluating.
func CompileBatch(m nn.Model, lanes int) *BatchPlan {
	if lanes <= 0 {
		lanes = BatchLanes
	}
	bp := &BatchPlan{
		net:    m,
		dag:    nn.DAGOf(m),
		lanes:  make([]*CompiledPlan, lanes),
		dsts:   make([][]float64, lanes),
		laneOf: make([]int, lanes),
		trs:    make([]*nn.Trace, lanes),
		levels: make([][][]float64, lanes),
		srcs:   make([][][]float64, lanes),
		sets:   make([]laneSet, lanes),
	}
	L := m.NumLayers()
	if rs, ok := m.(nn.RowSummer); ok {
		bp.rs = rs
		bp.rowBase = make([]int, L+2)
		for l := 1; l <= L; l++ {
			bp.rowBase[l+1] = bp.rowBase[l] + m.Width(l)
		}
		bp.mark = make([]bool, bp.rowBase[L+1])
	}
	for p := range bp.lanes {
		bp.lanes[p] = Compile(m, Plan{})
		bp.levels[p] = make([][]float64, L+1)
		bp.sets[p] = laneSet{rows: make([][]int32, L+1), kernel: make([]bool, L+1)}
	}
	bp.sc.Ensure(m, lanes)
	return bp
}

// Lanes returns the lane capacity.
func (bp *BatchPlan) Lanes() int { return len(bp.lanes) }

// Reset re-indexes the lanes for a new group of plans (len(plans) may
// be anything up to the capacity), reusing every index buffer — the
// allocation-free way to sweep many plan groups, mirroring
// CompiledPlan.Reset lane by lane.
func (bp *BatchPlan) Reset(plans []Plan) {
	if len(plans) > len(bp.lanes) {
		panic(fmt.Sprintf("fault: BatchPlan.Reset with %d plans for %d lanes", len(plans), len(bp.lanes)))
	}
	for p, plan := range plans {
		bp.lanes[p].Reset(plan)
		bp.index(p)
	}
	bp.active = len(plans)
}

// ResetShared loads the same plan into n lanes — the input-batching
// configuration: one plan evaluated against n different traces per
// call (MaxError's axis, where the plan is fixed and the inputs vary).
func (bp *BatchPlan) ResetShared(plan Plan, n int) {
	if n > len(bp.lanes) {
		panic(fmt.Sprintf("fault: BatchPlan.ResetShared with %d lanes of %d", n, len(bp.lanes)))
	}
	for p := 0; p < n; p++ {
		bp.lanes[p].Reset(plan)
		bp.index(p)
	}
	bp.active = n
}

// index builds lane p's compute sets from its freshly reset plan.
// Without a reader index a level is all or nothing: the whole level
// when a synapse fault or a changed source level touches it. With one,
// the set grows level by level: a level's synapse-faulted rows join it,
// and every changed node of the level (computed or overridden) adds its
// unmarked readers to theirs — O(faults × fan-out), clearing only the
// marks it set.
func (bp *BatchPlan) index(p int) {
	cp, ls := bp.lanes[p], &bp.sets[p]
	L := bp.dag.NumLayers()
	for l := 1; l <= L; l++ {
		ls.rows[l] = ls.rows[l][:0]
	}
	if bp.rs == nil {
		for l := 1; l <= L; l++ {
			ls.kernel[l] = cp.frontier[l] && (len(cp.synapsesAt[l]) > 0 || cp.srcDirty[l])
		}
		return
	}
	for l := 1; l <= L; l++ {
		for _, f := range cp.synapsesAt[l] {
			bp.add(ls, l, bp.rowBase[l]+f.To)
		}
		changed := len(ls.rows[l])
		for _, i := range cp.overridden[l] {
			if !bp.mark[bp.rowBase[l]+i] {
				changed++
			}
		}
		ls.kernel[l] = changed == bp.dag.Width(l)
		if l == L {
			break // only the output node reads level L
		}
		for _, r := range ls.rows[l] {
			bp.addReaders(ls, l, int(r))
		}
		for _, i := range cp.overridden[l] {
			bp.addReaders(ls, l, i)
		}
	}
	for l := 1; l <= L; l++ {
		for _, r := range ls.rows[l] {
			bp.mark[bp.rowBase[l]+int(r)] = false
		}
	}
}

// addReaders adds the readers of node i of level v to their levels'
// compute sets. Readers ascend, so their levels follow in one pass.
func (bp *BatchPlan) addReaders(ls *laneSet, v, i int) {
	l := v + 1
	for _, g := range bp.rs.Readers(v, i) {
		for int(g) >= bp.rowBase[l+1] {
			l++
		}
		bp.add(ls, l, int(g))
	}
}

// add puts hidden row g (the reader-index number of a row of level l)
// into level l's compute set unless it is already there.
func (bp *BatchPlan) add(ls *laneSet, l, g int) {
	if !bp.mark[g] {
		bp.mark[g] = true
		ls.rows[l] = append(ls.rows[l], int32(g-bp.rowBase[l]))
	}
}

// ErrorsOnTrace evaluates every loaded lane against one clean trace:
// out[p] receives |Fneu - Ffail_p| on tr.Input, bit-identical to
// lanes[p].ErrorOnTrace(injs[p], tr). This is the plan-batching axis
// (exhaustive search, Monte Carlo: many plans, one input at a time).
func (bp *BatchPlan) ErrorsOnTrace(injs []Injector, tr *nn.Trace, out []float64) {
	for p := 0; p < bp.active; p++ {
		bp.trs[p] = tr
	}
	bp.evalLanes(injs, out)
}

// ErrorsOnTraces evaluates lane p against trs[p]: the general form
// (per-lane plan AND per-lane input). len(injs), len(trs) and len(out)
// must cover the loaded lanes.
func (bp *BatchPlan) ErrorsOnTraces(injs []Injector, trs []*nn.Trace, out []float64) {
	if len(trs) < bp.active {
		panic("fault: BatchPlan evaluation with short trace slice")
	}
	copy(bp.trs, trs[:bp.active])
	bp.evalLanes(injs, out)
}

// evalLanes is the fused multi-lane damaged sweep over bp.trs; out[p]
// receives lane p's absolute error. Per lane the arithmetic replays
// CompiledPlan.ErrorOnTrace exactly, so results stay bit-identical to
// the scalar engine for every injector.
func (bp *BatchPlan) evalLanes(injs []Injector, out []float64) {
	n := bp.active
	if len(injs) < n || len(out) < n {
		panic("fault: BatchPlan evaluation with short injector or output slice")
	}
	m := bp.dag
	L := m.NumLayers()
	act := m.Activation()
	bp.sc.Ensure(bp.net, len(bp.lanes))

	// Wire each lane's level pointers to its clean trace; frontier
	// levels are repointed at scratch as the sweep computes them.
	minD := L + 1
	for p := 0; p < n; p++ {
		tr := bp.trs[p]
		ys := bp.levels[p]
		ys[0] = tr.Input
		for l := 1; l <= L; l++ {
			ys[l] = tr.Outputs[l-1]
		}
		if d := bp.lanes[p].diverge; d < minD {
			minD = d
		}
	}

	for l := minD; l <= L; l++ {
		k := 0
		lanebufs := bp.sc.Layer(l)
		for p := 0; p < n; p++ {
			cp, ls := bp.lanes[p], &bp.sets[p]
			if ls.kernel[l] {
				bp.dsts[k] = lanebufs[p]
				bp.srcs[k] = bp.levels[p]
				bp.laneOf[k] = p
				k++
				continue
			}
			rows := ls.rows[l]
			if len(rows) == 0 && len(cp.neuronsAt[l]) == 0 {
				continue // nothing changed: the level stays the trace's
			}
			// Row path: rows outside the compute set read only clean
			// values, so their outputs are bitwise the trace's — copy
			// the level and compute the set alone.
			tr := bp.trs[p]
			dst := lanebufs[p]
			ys := bp.levels[p]
			copy(dst, tr.Outputs[l-1])
			if len(rows) > 0 {
				bp.rs.RowSums(l, dst, ys, rows)
				applySynapses(m, cp, injs[p], l, dst, ys)
				for _, r := range rows {
					activation.Eval(act, dst[r:r+1], dst[r:r+1])
				}
			}
			_, isCrash := injs[p].(Crash)
			cp.overrideNeurons(injs[p], isCrash, l, dst, tr.Outputs[l-1])
			ys[l] = dst
		}
		if k == 0 {
			continue
		}
		// One sweep over the level's edge list serves every kernel lane.
		nn.LevelSumsLanesModel(m, l, bp.dsts[:k], bp.srcs[:k])
		// Fault application per lane, in the exact order of the scalar
		// engine: synapse deltas on the received sums
		// (in-edge ordinal addressing — a fault can sit on a skip edge),
		// activation, then neuron overrides reading nominals off the
		// clean trace. Overridden rows are computed and then overwritten,
		// which leaves the same final values as the scalar skip lists.
		for s := 0; s < k; s++ {
			p := bp.laneOf[s]
			cp := bp.lanes[p]
			inj := injs[p]
			sF := bp.dsts[s]
			applySynapses(m, cp, inj, l, sF, bp.levels[p])
			activation.Eval(act, sF, sF)
			_, isCrash := inj.(Crash)
			cp.overrideNeurons(inj, isCrash, l, sF, bp.trs[p].Outputs[l-1])
			bp.levels[p][l] = sF
		}
	}

	for p := 0; p < n; p++ {
		cp := bp.lanes[p]
		ys := bp.levels[p]
		faulted := m.OutputSumLevels(ys)
		for _, f := range cp.synapsesAt[L+1] {
			sl, si, w := m.InEdge(L+1, f.To, f.From)
			faulted += injs[p].SynapseDelta(f, w*ys[sl][si])
		}
		out[p] = math.Abs(bp.trs[p].Output - faulted)
	}
}

// applySynapses adds lane cp's level-l synapse deltas to the received
// sums sF, in plan order, reading the sources off the lane's levels ys.
func applySynapses(m nn.DAGModel, cp *CompiledPlan, inj Injector, l int, sF []float64, ys [][]float64) {
	for _, f := range cp.synapsesAt[l] {
		sl, si, w := m.InEdge(l, f.To, f.From)
		sF[f.To] += inj.SynapseDelta(f, w*ys[sl][si])
	}
}
