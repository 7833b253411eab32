package core

import (
	"fmt"
	"math"

	"repro/internal/nn"
)

// SubtreeBounder prices the branch-and-bound pruning of the
// tree-structured exhaustive search (fault.WorstCase): given a node of
// the configuration tree — levels 1..d already damaged, levels > d
// still free — it bounds the output deviation of EVERY leaf
// configuration below that node, so a subtree whose bound is strictly
// below the incumbent worst error can be skipped without evaluating a
// single leaf. It keeps one propagation coefficient per node, so it is
// sound on any topology (nn.DAGOf): a skip edge is priced along its
// own paths instead of through the layer chain it bypasses.
//
// Write δ_u(x) ≥ 0 for the absolute deviation of node u's emitted value
// from the clean trace on input x. At a depth-d tree node the levels
// 1..d are damaged and measured (δ exact), the levels > d are free. For
// any completion of the free levels, a correct free node is K-Lipschitz
// in its received sum and a faulty free node emits inj(clean) — a
// deviation that is exact and independent of upstream damage. Unrolling
// those two facts along every path gives
//
//	|Fneu(x) - Ffail(x)| <= Σ_{lvl(u) <= d} coef_d(u)·δ_u(x)
//	                      + Σ_{l > d} topf_l(x)
//
// where coef_d(u) — Coef(d, lvl(u))[idx(u)] — sums |w| products times
// K per correct intermediate node over every path from u to the output
// that stays strictly inside the free levels (paths through other
// measured nodes are already accounted by THEIR δ), and topf_l(x)
// bounds Σ amp(u)·dev_u(x) over any admissible choice of the f_l faulty
// nodes of free level l, with amp(u) the all-levels-free amplification
// — exactly NodeShape's Amp, exposed here so callers price the tails
// and the leaf layer's own combinations with the same coefficients. At
// the root (d = 0, every level free) with every deviation capped by c,
// the bound is NodeShape.Fep(faults, c).
//
// Soundness is what makes pruning free: the bound dominates every leaf
// of the subtree in real arithmetic, so skipping a subtree whose bound
// is STRICTLY below an attained error (modulo the caller's rounding
// slack) can never discard a configuration attaining the maximum, and
// ties are never pruned. On a strictly layered model coef_d(u) is zero
// for every u at levels < d — all paths thread the measured level d —
// which is the layer-chain bound's structure with per-edge weights in
// place of the per-layer factors (N_l - f_l)·K·w_m^{(l)}. See DESIGN.md
// §9.2 for the derivation.
type SubtreeBounder struct {
	layers   int
	maxDepth int
	// amp[l-1][i]: node (l, i)'s all-levels-free amplification (the
	// NodeShape amp — one reverse sweep with every level free).
	amp [][]float64
	// coef[d][v-1][i]: node (v, i)'s amplification through the free
	// levels > d only, for 1 <= v <= d <= maxDepth.
	coef [][][]float64
}

// NewSubtreeBounder builds per-node propagation coefficients for a
// fault distribution (faults[l-1] faulty neurons in layer l) over any
// Model — one reverseAmp sweep per damaged depth, O(dl·E) total. It
// validates and returns errors: the tree engine is reachable from serve
// requests.
func NewSubtreeBounder(m nn.Model, faults []int) (*SubtreeBounder, error) {
	act := m.Activation()
	k := act.Lipschitz()
	if k <= 0 || math.IsNaN(k) {
		return nil, fmt.Errorf("core: Lipschitz constant %v", k)
	}
	L := m.NumLayers()
	if len(faults) != L {
		return nil, fmt.Errorf("core: fault distribution has %d entries for %d layers", len(faults), L)
	}
	maxDepth := 0
	for l := 1; l <= L; l++ {
		w := m.Width(l)
		if w <= 0 {
			return nil, fmt.Errorf("core: layer %d has width %d", l, w)
		}
		if f := faults[l-1]; f < 0 || f > w {
			return nil, fmt.Errorf("core: f_%d = %d outside [0, N_%d=%d]", l, f, l, w)
		}
		if faults[l-1] > 0 {
			maxDepth = l
		}
	}
	b := &SubtreeBounder{layers: L, maxDepth: maxDepth, coef: make([][][]float64, maxDepth+1)}
	dm := nn.DAGOf(m)
	// Depth d is the sweep's floor: nodes at levels <= d accumulate
	// incoming amplification but forward nothing — their deviations
	// are measured, not propagated. d = 0 frees every level.
	for d := 0; d <= maxDepth; d++ {
		amp := outputAmps(m)
		if err := reverseAmp(dm, k, amp, L+1, d); err != nil {
			return nil, err
		}
		if d == 0 {
			b.amp = amp[1 : L+1]
		} else {
			b.coef[d] = amp[1 : d+1]
		}
	}
	return b, nil
}

// Layers returns L.
func (b *SubtreeBounder) Layers() int { return b.layers }

// MaxDepth returns the deepest 1-based layer hosting faults (0 when the
// distribution is empty); Coef is defined for depths 1..MaxDepth.
func (b *SubtreeBounder) MaxDepth() int { return b.maxDepth }

// Amp returns level l's all-levels-free per-node amplifications
// (l = 1..L) — the coefficients pricing faults at FREE levels: a faulty
// node's exact deviation propagates through downstream levels that are
// all free at any bound depth above it. The slice is owned by the
// bounder; callers must not mutate it.
func (b *SubtreeBounder) Amp(l int) []float64 { return b.amp[l-1] }

// Coef returns level v's per-node coefficients for a bound at depth d
// (1 <= v <= d <= MaxDepth): entry i multiplies the measured deviation
// of node (v, i). The slice is owned by the bounder; callers must not
// mutate it.
func (b *SubtreeBounder) Coef(d, v int) []float64 { return b.coef[d][v-1] }
