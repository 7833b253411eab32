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
	}
	for t := 1; t <= L; t++ {
		w := m.Width(t)
		if w <= 0 {
			return nil, fmt.Errorf("core: layer %d has width %d", t, w)
		}
		ns.widths[t-1] = w
	}
	dm := nn.DAGOf(m)
	full := outputAmps(m)
	if err := reverseAmp(dm, k, full, L+1, 0); err != nil {
		return nil, err
	}
	ns.inAmp = full[0]
	ns.amp = full[1 : L+1]
	// An errored synapse into level t is amplified by its receiver's
	// gain, counted once per in-edge.
	ns.synPrefix = make([][]float64, L+1)
	for t := 1; t <= L+1; t++ {
		var gains []float64
		for j, a := range full[t] {
			g := a * levelK(L, t, k)
			for e := dm.FanIn(t, j); e > 0; e-- {
				gains = append(gains, g)
			}
		}
		ns.synPrefix[t-1] = descendingPrefix(gains)
	}
	ns.sorted = make([][]float64, L)
	ns.prefix = make([][]float64, L)
	for l := 1; l <= L; l++ {
		ns.sorted[l-1] = append([]float64(nil), full[l]...)
		ns.prefix[l-1] = descendingPrefix(ns.sorted[l-1])
	}
	return ns, nil
}

// outputAmps returns a reverseAmp table seeded at the output node: a
// zero row for every level 0..L and a unit row for level L+1.
func outputAmps(m nn.Model) [][]float64 {
	L := m.NumLayers()
	amp := make([][]float64, L+2)
	for t := 0; t <= L; t++ {
		amp[t] = make([]float64, m.Width(t))
	}
	amp[L+1] = []float64{1}
	return amp
}

// levelK is the Lipschitz factor a unit deviation of level t's sum
// picks up: K at a hidden level, 1 at the linear output node (L+1).
func levelK(L, t int, k float64) float64 {
	if t > L {
		return 1
	}
	return k
}

// reverseAmp is the one reverse amplification sweep behind NodeShape,
// SubtreeBounder and CertifySpan. On entry amp[top] holds the seeds and
// every row an edge into levels floor+1..top leaves from is zero; on
// return amp[v][i] bounds the seeds' weighted deviation per unit
// deviation of node (v, i)'s emitted value, along every path whose
// intermediate nodes sit above floor:
//
//	amp(v) = Σ_{edges v→u} |w_{vu}| · levelK(u) · amp(u).
//
// Levels at or below floor receive amplification but forward none, and
// nodes with zero gain are skipped. A NaN weight on a walked edge is an
// error: it would turn the certificate into NaN.
func reverseAmp(dm nn.DAGModel, k float64, amp [][]float64, top, floor int) error {
	L := dm.NumLayers()
	for t := top; t > floor; t-- {
		kt := levelK(L, t, k)
		for j, a := range amp[t] {
			g := a * kt
			if g == 0 {
				continue
			}
			d := dm.FanIn(t, j)
			for e := 0; e < d; e++ {
				sl, si, w := dm.InEdge(t, j, e)
				if math.IsNaN(w) {
					return fmt.Errorf("core: NaN weight into layer %d", t)
				}
				amp[sl][si] += math.Abs(w) * g
			}
		}
	}
	return nil
}

// descendingPrefix sorts xs descending in place and returns its prefix
// sums: entry f sums the f largest values.
func descendingPrefix(xs []float64) []float64 {
	sort.Sort(sort.Reverse(sort.Float64Slice(xs)))
	pre := make([]float64, len(xs)+1)
	for i, x := range xs {
		pre[i+1] = pre[i] + x
	}
	return pre
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
