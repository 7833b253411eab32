package fault

import (
	"math"
	"sort"

	"repro/internal/nn"
	"repro/internal/rng"
)

// RandomNeuronPlan fails perLayer[l-1] uniformly chosen neurons in each
// layer l.
func RandomNeuronPlan(r *rng.Rand, n nn.Model, perLayer []int) Plan {
	if len(perLayer) != n.NumLayers() {
		panic("fault: perLayer length must equal the number of layers")
	}
	var p Plan
	for l := 1; l <= n.NumLayers(); l++ {
		k := perLayer[l-1]
		for _, idx := range r.Sample(n.Width(l), k) {
			p.Neurons = append(p.Neurons, NeuronFault{Layer: l, Index: idx})
		}
	}
	return p
}

// OutgoingScorer is an optional Model refinement: models with weight
// structure (conv receptive fields) report the largest absolute weight
// a neuron feeds forward through in O(R) instead of the generic scan
// over the full virtual dense connectivity.
type OutgoingScorer interface {
	// OutgoingWeight returns max_j |Weight(l+1, j, idx)| for neuron idx
	// of layer l (1..L; l = L scores against the output synapses).
	OutgoingWeight(l, idx int) float64
}

// outgoingWeight scores neuron idx of layer l by the largest absolute
// weight it feeds forward through — the paper's adversary targets the
// neurons "with highest weights". For conv models the weights are the
// virtual dense connectivity's (shared kernel values inside the
// receptive field, zeros outside); their OutgoingScorer fast path must
// return exactly the generic scan's value, so plans agree with the
// lowered network's.
func outgoingWeight(n nn.Model, l, idx int) float64 {
	if s, ok := n.(OutgoingScorer); ok {
		return s.OutgoingWeight(l, idx)
	}
	if l == n.NumLayers() {
		return math.Abs(n.Weight(l+1, 0, idx))
	}
	best := 0.0
	for j := 0; j < n.Width(l+1); j++ {
		if w := math.Abs(n.Weight(l+1, j, idx)); w > best {
			best = w
		}
	}
	return best
}

// AdversarialNeuronPlan fails, in each layer, the neurons with the
// largest outgoing weights — the worst-case choice used in the tightness
// arguments of Theorems 1 and 2.
func AdversarialNeuronPlan(n nn.Model, perLayer []int) Plan {
	if len(perLayer) != n.NumLayers() {
		panic("fault: perLayer length must equal the number of layers")
	}
	var p Plan
	for l := 1; l <= n.NumLayers(); l++ {
		k := perLayer[l-1]
		if k == 0 {
			continue
		}
		width := n.Width(l)
		if k > width {
			panic("fault: more faults than neurons in layer")
		}
		idx := make([]int, width)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			return outgoingWeight(n, l, idx[a]) > outgoingWeight(n, l, idx[b])
		})
		for _, i := range idx[:k] {
			p.Neurons = append(p.Neurons, NeuronFault{Layer: l, Index: i})
		}
	}
	return p
}

// RandomSynapsePlan fails perLayer[l-1] uniformly chosen distinct
// synapses into each layer l (perLayer has length L+1; the last entry
// addresses the output synapses). The draw runs over the layer's edges
// in the model's nn.DAGOf view — for graph models the REAL edges, skip
// edges included and absent edges excluded; for dense and conv models
// the virtual dense connectivity — and From is the in-edge ordinal
// (the previous-layer index on layered models).
func RandomSynapsePlan(r *rng.Rand, n nn.Model, perLayer []int) Plan {
	L := n.NumLayers()
	if len(perLayer) != L+1 {
		panic("fault: synapse perLayer length must be L+1")
	}
	dm := nn.DAGOf(n)
	var p Plan
	for l := 1; l <= L+1; l++ {
		k := perLayer[l-1]
		rows := n.Width(l)
		// Cumulative fan-in: edge e of the layer belongs to the node
		// whose cumulative range contains it.
		cum := make([]int, rows+1)
		for to := 0; to < rows; to++ {
			cum[to+1] = cum[to] + dm.FanIn(l, to)
		}
		total := cum[rows]
		if k > total {
			panic("fault: more synapse faults than synapses in layer")
		}
		for _, flat := range r.Sample(total, k) {
			to := sort.SearchInts(cum, flat+1) - 1
			p.Synapses = append(p.Synapses, SynapseFault{
				Layer: l,
				To:    to,
				From:  flat - cum[to],
			})
		}
	}
	return p
}

// AdversarialSynapsePlan fails the largest-magnitude synapses into each
// layer, ranking the edges of the model's nn.DAGOf view (skip edges
// included on graph models) and addressing the chosen ones by in-edge
// ordinal.
func AdversarialSynapsePlan(n nn.Model, perLayer []int) Plan {
	L := n.NumLayers()
	if len(perLayer) != L+1 {
		panic("fault: synapse perLayer length must be L+1")
	}
	dm := nn.DAGOf(n)
	type scored struct {
		to, ord int
		w       float64
	}
	var p Plan
	for l := 1; l <= L+1; l++ {
		k := perLayer[l-1]
		if k == 0 {
			continue
		}
		var all []scored
		for to := 0; to < n.Width(l); to++ {
			d := dm.FanIn(l, to)
			for e := 0; e < d; e++ {
				_, _, w := dm.InEdge(l, to, e)
				all = append(all, scored{to, e, math.Abs(w)})
			}
		}
		sort.Slice(all, func(a, b int) bool { return all[a].w > all[b].w })
		if k > len(all) {
			panic("fault: more synapse faults than synapses in layer")
		}
		for _, s := range all[:k] {
			p.Synapses = append(p.Synapses, SynapseFault{Layer: l, To: s.to, From: s.ord})
		}
	}
	return p
}
