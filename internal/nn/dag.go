package nn

import (
	"sync"

	"repro/internal/activation"
	"repro/internal/tensor"
)

// DAGModel widens Model to arbitrary feed-forward DAGs: neurons are
// still grouped into topological levels 1..L (level 0 is the input,
// level L+1 the output node), but a neuron may read from ANY earlier
// level, not just the previous one. Strictly layered models are the
// special case where every SrcLevels(l) is {l-1}; DAGOf gives every
// Model this view.
//
// Addressing convention: because a node's inputs no longer form one
// contiguous previous layer, its in-edges are addressed by ORDINAL —
// the k-th edge in ascending (srcLevel, srcIdx) order, the same order
// the accumulation kernels traverse. Engines evaluating a DAGModel must
// route per-edge reads through InEdge/FanIn (never Weight, whose
// (to, from) addressing is only meaningful for the previous level), and
// fault.SynapseFault.From is that ordinal for DAG models.
type DAGModel interface {
	Model
	// SrcLevels returns the sorted distinct source levels feeding layer
	// l (1 <= l <= L+1). The slice is owned by the model; callers must
	// not mutate it.
	SrcLevels(l int) []int
	// FanIn returns the in-degree of neuron `to` of layer l
	// (1 <= l <= L+1; the output node is l = L+1, to = 0).
	FanIn(l, to int) int
	// InEdge returns the k-th in-edge of neuron `to` of layer l
	// (0 <= k < FanIn(l, to)): the source level and index plus the edge
	// weight, in ascending (srcLevel, srcIdx) order.
	InEdge(l, to, k int) (srcLevel, srcIdx int, w float64)
	// LevelSums computes layer l's pre-activation sums into dst from
	// the outputs of every level: ys[v] holds level v's outputs
	// (ys[0] is the input; only levels in SrcLevels(l) are read). skip
	// follows the LayerSums convention. For a layer whose only source
	// is l-1 the result is bit-identical to LayerSums(l, dst, ys[l-1],
	// skip).
	LevelSums(l int, dst []float64, ys [][]float64, skip []int)
	// OutputSumLevels evaluates the linear output node over every
	// level's outputs (bit-identical to OutputSum(ys[L]) when the
	// output reads only level L).
	OutputSumLevels(ys [][]float64) float64
}

// DAGOf returns m's level view: m itself when it is a DAGModel, and
// otherwise a chain view in which layer l's only source level is l-1.
// In the chain view in-edge ordinal k of a neuron is source index k of
// the previous layer (the virtual dense connectivity, zeros included for
// conv layers), and the level kernels forward to m's layer kernels on
// ys[l-1], so level-scheduled engines reproduce the layered arithmetic
// bit for bit. The view's methods allocate nothing and, like the model,
// are safe for concurrent use.
func DAGOf(m Model) DAGModel {
	if dm, ok := m.(DAGModel); ok {
		return dm
	}
	src := make([]int, m.NumLayers()+1)
	for v := range src {
		src[v] = v
	}
	return &chain{Model: m, src: src}
}

// chain is DAGOf's view of a strictly layered model.
type chain struct {
	Model
	src []int // src[v] = v; SrcLevels(l) is src[l-1:l]
}

func (c *chain) SrcLevels(l int) []int { return c.src[l-1 : l : l] }

func (c *chain) FanIn(l, _ int) int { return c.Width(l - 1) }

func (c *chain) InEdge(l, to, k int) (srcLevel, srcIdx int, w float64) {
	return l - 1, k, c.Weight(l, to, k)
}

func (c *chain) LevelSums(l int, dst []float64, ys [][]float64, skip []int) {
	c.LayerSums(l, dst, ys[l-1], skip)
}

func (c *chain) OutputSumLevels(ys [][]float64) float64 {
	return c.OutputSum(ys[len(c.src)-1])
}

// laneArgs recycles the per-lane source views of chain.LevelSumsLanes.
var laneArgs = sync.Pool{New: func() any { return new([][]float64) }}

// LevelSumsLanes runs the layered model's multi-lane kernel on every
// lane's level l-1 outputs.
func (c *chain) LevelSumsLanes(l int, dsts [][]float64, srcs [][][]float64) {
	buf := laneArgs.Get().(*[][]float64)
	ys := (*buf)[:0]
	for _, s := range srcs {
		ys = append(ys, s[l-1])
	}
	LayerSumsLanesModel(c.Model, l, dsts, ys)
	clear(ys)
	*buf = ys
	laneArgs.Put(buf)
}

// IsLayered reports whether m is expressible as a strict layer chain:
// every hidden layer and the output read only the immediately preceding
// level. Non-DAG models are layered by construction.
func IsLayered(m Model) bool {
	dm, ok := m.(DAGModel)
	if !ok {
		return true
	}
	for l := 1; l <= m.NumLayers()+1; l++ {
		src := dm.SrcLevels(l)
		if len(src) > 1 || (len(src) == 1 && src[0] != l-1) {
			return false
		}
	}
	return true
}

// ensureLevels sizes sc.levels for L+1 level pointers (grow-only).
func (sc *Scratch) ensureLevels(L int) [][]float64 {
	if cap(sc.levels) < L+1 {
		sc.levels = make([][]float64, L+1)
	}
	sc.levels = sc.levels[:L+1]
	return sc.levels
}

// forwardDAG is ForwardModel's level-scheduled path: every level is
// computed once, in topological order, and stays resident so later
// levels can read it (the graph memory model — O(total widths) live
// state instead of the layered engine's two rolling vectors).
func forwardDAG(m DAGModel, sc *Scratch, x []float64) float64 {
	sc.ensure(m)
	L := m.NumLayers()
	ys := sc.ensureLevels(L)
	ys[0] = x
	for l := 1; l <= L; l++ {
		s := sc.outs[l-1]
		m.LevelSums(l, s, ys, nil)
		activation.Eval(m.Activation(), s, s)
		ys[l] = s
	}
	return m.OutputSumLevels(ys)
}

// traceDAG is TraceModel's level-scheduled path; the returned Trace
// owns its buffers.
func traceDAG(m DAGModel, x []float64) *Trace {
	L := m.NumLayers()
	tr := &Trace{
		Input:   tensor.Clone(x),
		Sums:    make([][]float64, L),
		Outputs: make([][]float64, L),
	}
	ys := make([][]float64, L+1)
	ys[0] = x
	for l := 1; l <= L; l++ {
		s := make([]float64, m.Width(l))
		m.LevelSums(l, s, ys, nil)
		tr.Sums[l-1] = s
		out := make([]float64, len(s))
		activation.Eval(m.Activation(), out, s)
		tr.Outputs[l-1] = out
		ys[l] = out
	}
	tr.Output = m.OutputSumLevels(ys)
	return tr
}
