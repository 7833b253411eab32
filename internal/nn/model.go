// The Model interface abstracts the paper's computation model away from
// one concrete wiring (Lynch's abstraction argument): any feed-forward
// ϕ-network with a linear output node — dense nn.Network, the 1-D and
// 2-D convolutional nets of internal/conv — exposes its per-layer
// geometry, its distinct-weight maxima (receptive-field values for conv
// layers, the source of Section VI's less restrictive bounds), and
// layer-level forward kernels. Every downstream consumer (the fault
// engine, the bounds, the store, the query service) operates on Model,
// so convolutional workloads run at engine speed with no dense
// lowering on any hot path.
package nn

import (
	"repro/internal/activation"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Model is a feed-forward network with L hidden layers and a linear
// output node, exposed at the granularity the evaluation engine and the
// bounds need.
//
// # The Model contract
//
// This is the one authoritative statement of the conventions every
// implementation (dense, conv, graph) and every consumer relies on;
// per-method comments elsewhere point here rather than restating them.
//
//   - Indexing: layers are 1-based. Width(0) is the input dimension,
//     Width(L+1) is 1 (the single linear output node).
//
//   - Bias exclusion: MaxWeight covers a layer's DISTINCT weights only
//     — all N_l·N_{l-1} entries for a dense layer, the R(l) shared
//     kernel values for a convolutional one (Section VI), the per-edge
//     weights for a graph level. Biases are EXCLUDED: a bias is a
//     weight to a constant neuron, constant neurons never fail, so
//     biases never enter w_m or any Fep-style bound.
//
//   - Skip rows: the `skip` argument of LayerSums (and LevelSums) is a
//     sorted, deduplicated list of destination rows the caller will
//     override; the kernel MAY leave them uncomputed but is free to
//     compute them anyway (large layers do, to keep row ranges
//     contiguous for parallel dispatch).
//
//   - Bit-identity: LayerSums/OutputSum, and every lane of the
//     optional multi-lane kernels, must be allocation-free and
//     bit-identical to the equivalent dense network's kernels. Zeros
//     outside a conv receptive field (or absent graph edges) contribute
//     exact zeros, so sparse evaluation can and must reproduce the
//     dense accumulation order — see tensor.ConvAcc and graph.Net.
//
//   - Optional refinements: LaneSummer (multi-lane sums), DAGModel
//     (arbitrary-topology models; DAGOf gives every model this view,
//     and its InEdge/FanIn ordinal addressing supersedes Weight), and
//     fault.OutgoingScorer (per-neuron outgoing weight mass) are
//     discovered by type assertion with generic fallbacks.
type Model interface {
	// NumLayers returns L, the number of hidden layers.
	NumLayers() int
	// Width returns N_l for 1 <= l <= L; l = 0 returns the input
	// dimension and l = L+1 returns 1 (the output node).
	Width(l int) int
	// MaxWeight returns w_m^{(l)} for 1 <= l <= L+1 over the layer's
	// distinct weights, biases excluded (see the Model contract above).
	MaxWeight(l int) float64
	// Activation returns the shared squashing function ϕ.
	Activation() activation.Func
	// LayerSums computes the pre-activation sums s^{(l)} of layer l
	// (1 <= l <= L) into dst (length Width(l)) from the previous
	// layer's outputs y (length Width(l-1)), including biases. skip
	// follows the Model contract's skip-rows convention.
	LayerSums(l int, dst, y []float64, skip []int)
	// Weight returns the synapse weight into neuron `to` of layer l
	// (1 <= l <= L+1; the output node ignores `to`) from neuron `from`
	// of layer l-1 — 0 outside a conv layer's receptive field.
	Weight(l, to, from int) float64
	// OutputSum evaluates the linear output node on the last hidden
	// layer's outputs.
	OutputSum(y []float64) float64
	// Validate checks internal consistency.
	Validate() error
}

// Network implements Model; the remaining methods live in network.go.

// NumLayers returns L (Model naming; Layers is the historical name).
func (n *Network) NumLayers() int { return len(n.Hidden) }

// Activation returns ϕ.
func (n *Network) Activation() activation.Func { return n.Act }

// LayerSums computes s^{(l)} = W^{(l)} y + b^{(l)} into dst. Skip-listed
// rows are omitted when the layer is small enough for the segmented
// serial kernel; layers large enough for the parallel matvec compute
// the doomed rows anyway — the waste is negligible there and the row
// range stays contiguous for the goroutine dispatch.
func (n *Network) LayerSums(l int, dst, y []float64, skip []int) {
	m := n.Hidden[l-1]
	b := n.bias(l - 1)
	if len(skip) == 0 || m.Rows*m.Cols >= 1<<15 {
		m.MulVecAddTo(dst, y, b)
		return
	}
	lo := 0
	for _, idx := range skip {
		m.MulVecAddRange(dst, y, b, lo, idx)
		lo = idx + 1
	}
	m.MulVecAddRange(dst, y, b, lo, m.Rows)
}

// Weight returns w^{(l)}_{to,from}; layer L+1 addresses the output
// synapses (to is ignored — the output node is the only receiver).
func (n *Network) Weight(l, to, from int) float64 {
	if l == len(n.Hidden)+1 {
		return n.Output[from]
	}
	return n.Hidden[l-1].At(to, from)
}

// OutputSum evaluates the linear output node.
func (n *Network) OutputSum(y []float64) float64 {
	return tensor.Dot(n.Output, y) + n.OutputBias
}

// ForwardModel evaluates m on x using sc's buffers: zero steady-state
// allocations, bit-identical to the equivalent dense network's
// ForwardInto. This is the generic engine entry — conv nets expose it
// as their own ForwardInto.
func ForwardModel(m Model, sc *Scratch, x []float64) float64 {
	if dm, ok := m.(DAGModel); ok {
		return forwardDAG(dm, sc, x)
	}
	sc.ensure(m)
	y := x
	for l := 1; l <= m.NumLayers(); l++ {
		s := sc.outs[l-1]
		m.LayerSums(l, s, y, nil)
		activation.Eval(m.Activation(), s, s)
		y = s
	}
	return m.OutputSum(y)
}

// TraceModel evaluates m on x and returns a Trace that owns its
// buffers (the persistent-trace form CleanTraces builds).
func TraceModel(m Model, x []float64) *Trace {
	if n, ok := m.(*Network); ok {
		return n.ForwardTrace(x)
	}
	return traceDAG(DAGOf(m), x)
}

// ForwardBatchModel evaluates m on many inputs in parallel. Dense
// networks take their GEMM-accelerated batch path; other models run
// per-input forwards on pooled scratch.
func ForwardBatchModel(m Model, xs [][]float64) []float64 {
	if n, ok := m.(*Network); ok {
		return n.ForwardBatch(xs)
	}
	out := make([]float64, len(xs))
	parallel.ForChunked(len(xs), 1, func(lo, hi int) {
		sc := GetScratch(m)
		for i := lo; i < hi; i++ {
			out[i] = ForwardModel(m, sc, xs[i])
		}
		PutScratch(sc)
	})
	return out
}
