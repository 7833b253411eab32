package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/nn"
)

// NodeShape prices faults on arbitrary-topology models. The layered
// Shape compresses a network to per-layer widths and weight maxima,
// which is sound only when every fault's influence funnels through the
// strict layer chain; a skip connection routes a deviation AROUND the
// (N-f)·w_m products, so a layered Fep can undershoot on a graph.
// NodeShape instead computes, per node, the exact amplification factor
//
//	amp(v) = Σ_{edges v→u} |w_{vu}| · gain(u),
//	gain(u) = K·amp(u) for hidden u, 1 for the output node,
//
// by one reverse topological sweep over the model's edges: amp(v)
// bounds the output deviation caused by a unit deviation of v's emitted
// value, propagated along every path (Lipschitz per activation,
// triangle inequality across paths). A faulty node's emitted value
// deviates from its clean value by at most the model's cap c
// (injectors receive the CLEAN nominal), and faulty nodes downstream
// only block propagation, so summing c·amp over any fault set is a
// sound bound — the per-node analogue of Theorem 2 with the worst f_l
// nodes per level chosen by largest amplification.
//
// For strictly layered models NodeShape.Fep and Shape.Fep are
// incomparable in general: NodeShape drops the (N-f) discount (looser)
// but uses actual per-edge weights instead of per-layer maxima
// (tighter). Both are sound there; only NodeShape is sound for graphs.
//
// A NodeShape is immutable after construction and safe for concurrent
// use.
type NodeShape struct {
	widths []int
	k      float64
	actCap float64
	// amp[l-1][i] is node (l, i)'s amplification, l = 1..L.
	amp [][]float64
	// inAmp[i] is input i's amplification (the model's Lipschitz bound
	// per input coordinate — not fault-priced, inputs cannot fail).
	inAmp []float64
	// sorted[l-1] is amp[l-1] sorted descending; prefix[l-1][f] sums its
	// first f entries (the worst f faults of level l).
	sorted [][]float64
	prefix [][]float64
	// synPrefix[l-1][f], l = 1..L+1: prefix sums of the descending
	// multiset {receiverGain(to) × FanIn(to)} of edges into level l —
	// the worst f Byzantine synapses into that level.
	synPrefix [][]float64
}

// NodeShapeOf builds the per-node shape of any Model by one reverse
// topological sweep over the edges of its nn.DAGOf view (graph models
// enumerate real edges, layered models full previous-layer fan-in).
func NodeShapeOf(m nn.Model) (*NodeShape, error) {
	act := m.Activation()
	k := act.Lipschitz()
	if k <= 0 || math.IsNaN(k) {
		return nil, fmt.Errorf("core: Lipschitz constant %v", k)
	}
	L := m.NumLayers()
	if L == 0 {
		return nil, fmt.Errorf("core: model has no layers")
	}
	ns := &NodeShape{
		widths: make([]int, L),
		k:      k,
		actCap: math.Max(math.Abs(act.Min()), math.Abs(act.Max())),
		amp:    make([][]float64, L),
		inAmp:  make([]float64, m.Width(0)),
	}
	// amp[t] with a virtual amp for the output node seeded at 1.
	full := make([][]float64, L+2)
	for t := 1; t <= L; t++ {
		w := m.Width(t)
		if w <= 0 {
			return nil, fmt.Errorf("core: layer %d has width %d", t, w)
		}
		ns.widths[t-1] = w
		full[t] = make([]float64, w)
	}
	full[L+1] = []float64{1}
	dm := nn.DAGOf(m)
	ns.synPrefix = make([][]float64, L+1)
	for t := L + 1; t >= 1; t-- {
		wt := 1
		if t <= L {
			wt = m.Width(t)
		}
		var gains []float64
		for j := 0; j < wt; j++ {
			g := full[t][j]
			if t <= L {
				g *= k
			}
			d := dm.FanIn(t, j)
			for e := 0; e < d; e++ {
				gains = append(gains, g)
				sl, si, w := dm.InEdge(t, j, e)
				if math.IsNaN(w) {
					return nil, fmt.Errorf("core: NaN weight into layer %d", t)
				}
				aw := math.Abs(w) * g
				if sl == 0 {
					ns.inAmp[si] += aw
				} else {
					full[sl][si] += aw
				}
			}
		}
		// Worst-f synapse prefix sums for edges into level t.
		sort.Sort(sort.Reverse(sort.Float64Slice(gains)))
		pre := make([]float64, len(gains)+1)
		for i, g := range gains {
			pre[i+1] = pre[i] + g
		}
		ns.synPrefix[t-1] = pre
	}
	ns.sorted = make([][]float64, L)
	ns.prefix = make([][]float64, L)
	for l := 1; l <= L; l++ {
		ns.amp[l-1] = full[l]
		s := append([]float64(nil), full[l]...)
		sort.Sort(sort.Reverse(sort.Float64Slice(s)))
		ns.sorted[l-1] = s
		pre := make([]float64, len(s)+1)
		for i, a := range s {
			pre[i+1] = pre[i] + a
		}
		ns.prefix[l-1] = pre
	}
	return ns, nil
}

// Layers returns L.
func (ns *NodeShape) Layers() int { return len(ns.widths) }

// K returns the activation's Lipschitz constant.
func (ns *NodeShape) K() float64 { return ns.k }

// ActCap returns sup|ϕ|, the crash-case deviation cap.
func (ns *NodeShape) ActCap() float64 { return ns.actCap }

// Amp returns node (l, i)'s amplification factor.
func (ns *NodeShape) Amp(l, i int) float64 { return ns.amp[l-1][i] }

// InAmp returns input coordinate i's amplification factor.
func (ns *NodeShape) InAmp(i int) float64 { return ns.inAmp[i] }

// SynapseCount returns the number of synapses into layer l (1..L+1).
func (ns *NodeShape) SynapseCount(l int) int { return len(ns.synPrefix[l-1]) - 1 }

func (ns *NodeShape) checkFaults(faults []int) {
	if len(faults) != len(ns.widths) {
		panic(fmt.Sprintf("core: fault distribution has %d entries for %d layers", len(faults), len(ns.widths)))
	}
	for l, f := range faults {
		if f < 0 || f > ns.widths[l] {
			panic(fmt.Sprintf("core: f_%d = %d outside [0, N_%d=%d]", l+1, f, l+1, ns.widths[l]))
		}
	}
}

// Fep bounds the output deviation when faults[l-1] neurons of layer l
// each emit a value deviating by at most c: the worst faults[l-1] nodes
// per level by amplification, times c. O(L) per query after the O(E)
// construction — the same query cost as the layered Theorem 2.
func (ns *NodeShape) Fep(faults []int, c float64) float64 {
	ns.checkFaults(faults)
	if c < 0 {
		panic("core: negative capacity")
	}
	total := 0.0
	for l, f := range faults {
		total += ns.prefix[l][f]
	}
	return c * total
}

// CrashFep is Fep with the crash cap sup|ϕ| (a crashed node emits 0,
// deviating by at most the largest value a correct node can emit).
func (ns *NodeShape) CrashFep(faults []int) float64 {
	return ns.Fep(faults, ns.actCap)
}

// DeviationFep generalises Fep to heterogeneous per-fault caps:
// devs[l-1] lists one deviation cap per faulty node of layer l. The
// worst assignment pairs the largest caps with the largest
// amplifications (rearrangement inequality).
func (ns *NodeShape) DeviationFep(devs [][]float64) float64 {
	if len(devs) != len(ns.widths) {
		panic(fmt.Sprintf("core: DeviationFep has %d layers of caps for %d layers", len(devs), len(ns.widths)))
	}
	total := 0.0
	for l, d := range devs {
		if len(d) > ns.widths[l] {
			panic(fmt.Sprintf("core: %d caps for layer %d of width %d", len(d), l+1, ns.widths[l]))
		}
		caps := append([]float64(nil), d...)
		sort.Sort(sort.Reverse(sort.Float64Slice(caps)))
		for i, c := range caps {
			if c < 0 || math.IsNaN(c) {
				panic(fmt.Sprintf("core: deviation cap %v at layer %d", c, l+1))
			}
			total += c * ns.sorted[l][i]
		}
	}
	return total
}

// SynapseFep bounds the output deviation when faults[l-1] synapses into
// layer l (l = 1..L+1, the last entry the output synapses) each carry
// an error of at most c: an errored edge perturbs its receiver's sum by
// at most c, amplified by the receiver's gain (K·amp for hidden
// receivers, 1 for the output). The worst f edges per level are the
// top-f receiver gains counted with fan-in multiplicity.
func (ns *NodeShape) SynapseFep(faults []int, c float64) float64 {
	L := len(ns.widths)
	if len(faults) != L+1 {
		panic(fmt.Sprintf("core: synapse distribution has %d entries, want L+1 = %d", len(faults), L+1))
	}
	if c < 0 {
		panic("core: negative capacity")
	}
	total := 0.0
	for l, f := range faults {
		if f < 0 || f >= len(ns.synPrefix[l]) {
			panic(fmt.Sprintf("core: f_%d = %d outside [0, %d synapses]", l+1, f, len(ns.synPrefix[l])-1))
		}
		total += ns.synPrefix[l][f]
	}
	return c * total
}

// Tolerates is the Theorem 3 condition over the per-node bound: the
// fault distribution is tolerated iff Fep <= ε - ε'.
func (ns *NodeShape) Tolerates(faults []int, c, eps, epsPrime float64) bool {
	if eps < epsPrime {
		return false
	}
	return ns.Fep(faults, c) <= eps-epsPrime
}

// CrashTolerates is Tolerates with the crash cap.
func (ns *NodeShape) CrashTolerates(faults []int, eps, epsPrime float64) bool {
	return ns.Tolerates(faults, ns.actCap, eps, epsPrime)
}

// RequiredSignals is Corollary 2 unchanged: consumers of level l need
// only N_l - f_l signals before proceeding.
func (ns *NodeShape) RequiredSignals(faults []int) []int {
	ns.checkFaults(faults)
	out := make([]int, len(ns.widths))
	for l, f := range faults {
		out[l] = ns.widths[l] - f
	}
	return out
}
