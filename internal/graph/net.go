// Package graph implements arbitrary-topology feed-forward models: a
// Net groups neurons into topological levels but lets a neuron read
// from ANY earlier level (skip connections), with per-edge weights
// stored in compressed sparse rows. Strictly layered dense and
// convolutional nets become special cases of this wiring; a graph whose
// every level reads only the preceding one lowers to a dense nn.Network
// (Lower) that stays the bit-identical test oracle.
//
// # Memory model
//
// The layered engine keeps two rolling vectors alive; a DAG cannot,
// because a later level may read any earlier one. The graph engine
// therefore schedules levels topologically and keeps every level's
// output resident for the duration of one forward pass — O(Σ N_l) live
// floats (see nn.forwardDAG). Within a level, each node accumulates its
// in-edges in ascending (srcLevel, srcIdx) order over the virtual
// concatenation of its level's source levels, replaying the dense
// kernel's four-lane order (tensor.Dot) on that concatenation: edge
// columns below concatWidth&^3 feed lane col&3, the tail feeds lane 0,
// and the bias joins after the lane reduction. Absent edges contribute
// exact zeros in the dense oracle, so skipping them never changes a
// lane (the same +0/-0 argument tensor.ConvAcc relies on) and
// graph-native evaluation is bit-identical to the lowered network.
package graph

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/activation"
	"repro/internal/tensor"
)

// Level is one topological level of a Net in CSR form: node `to` owns
// edges Ptr[to]..Ptr[to+1], and edge e reads node SrcIdx[e] of level
// SrcLevel[e] with weight W[e]. A node's edges must be sorted strictly
// ascending by (SrcLevel, SrcIdx) — the order the kernels accumulate
// in. Bias is optional (nil = no biases on this level).
type Level struct {
	N        int       `json:"n"`
	Ptr      []int     `json:"ptr"`
	SrcLevel []int     `json:"src_level"`
	SrcIdx   []int     `json:"src_idx"`
	W        []float64 `json:"w"`
	Bias     []float64 `json:"bias,omitempty"`
}

// Edges returns the number of edges into the level.
func (lv *Level) Edges() int { return len(lv.W) }

// Net is a feed-forward DAG with L hidden levels and one linear output
// node. Level 0 is the input (InputDim nodes), levels 1..L are hidden
// (squashed by Act), and Output is level L+1 (exactly one node, no
// activation). A Net must not be mutated after first use: derived
// metadata (source-level sets, concatenation columns, per-level weight
// maxima) is compiled lazily and cached.
type Net struct {
	InputDim int
	Act      activation.Func
	Levels   []*Level
	Output   *Level

	once       sync.Once
	meta       []levelMeta // meta[l-1] for level l = 1..L+1
	outMax     [][]float64 // outMax[l-1][i]: max |w| over edges leaving node (l, i)
	compileErr error
	// The reader index (nn.RowSummer) in flat CSR form: hidden node
	// (l, i) is number rowBase[l]+i, and the hidden rows reading node g
	// are rdRow[rdPtr[g]:rdPtr[g+1]], ascending — one int32 per edge
	// between hidden levels.
	rowBase []int
	rdPtr   []int32
	rdRow   []int32
}

// levelMeta is the compiled per-level evaluation metadata.
type levelMeta struct {
	srcLevels []int // sorted distinct source levels
	offsets   []int // concat offset of each srcLevels entry
	concatW   int   // total width of the virtual source concatenation
	cut       int   // concatW &^ 3 — the dense kernel's lane boundary
	col       []int // per-edge concat column
	maxW      float64
	prevOnly  bool       // srcLevels ⊆ {l-1}: LayerSums/OutputSum are valid
	dense     bool       // one source level, read in full by every node
	csr       tensor.CSR // zero-copy view over the level's edge arrays
}

// level returns level l's CSR block (1 <= l <= L+1).
func (n *Net) level(l int) *Level {
	if l == len(n.Levels)+1 {
		return n.Output
	}
	return n.Levels[l-1]
}

// width returns the node count of level v (0 <= v <= L+1).
func (n *Net) width(v int) int {
	switch {
	case v == 0:
		return n.InputDim
	case v <= len(n.Levels):
		return n.Levels[v-1].N
	default:
		return 1
	}
}

// compile builds the per-level metadata once; subsequent calls are free.
func (n *Net) compile() error {
	n.once.Do(func() { n.compileErr = n.doCompile() })
	return n.compileErr
}

// mustCompile is compile for methods without an error return (the Model
// kernels); construction and codec paths surface the error via Validate.
func (n *Net) mustCompile() {
	if err := n.compile(); err != nil {
		panic("graph: " + err.Error())
	}
}

func (n *Net) doCompile() error {
	if n.InputDim <= 0 {
		return fmt.Errorf("graph: input dimension %d", n.InputDim)
	}
	if n.Act == nil {
		return fmt.Errorf("graph: nil activation")
	}
	if len(n.Levels) == 0 {
		return fmt.Errorf("graph: no hidden levels")
	}
	if n.Output == nil {
		return fmt.Errorf("graph: nil output level")
	}
	if n.Output.N != 1 {
		return fmt.Errorf("graph: output level has %d nodes, want 1", n.Output.N)
	}
	L := len(n.Levels)
	for l := 1; l <= L; l++ {
		if n.Levels[l-1] == nil {
			return fmt.Errorf("graph: level %d is nil", l)
		}
		if n.Levels[l-1].N <= 0 {
			return fmt.Errorf("graph: level %d has %d nodes", l, n.Levels[l-1].N)
		}
	}
	n.meta = make([]levelMeta, L+1)
	n.outMax = make([][]float64, L)
	n.rowBase = make([]int, L+2)
	for l := 1; l <= L; l++ {
		n.outMax[l-1] = make([]float64, n.Levels[l-1].N)
		n.rowBase[l+1] = n.rowBase[l] + n.Levels[l-1].N
	}
	hidden := n.rowBase[L+1]
	n.rdPtr = make([]int32, hidden+1)
	for l := 1; l <= L+1; l++ {
		if err := n.compileLevel(l); err != nil {
			return err
		}
	}
	edges := 0
	for _, lv := range n.Levels {
		edges += lv.Edges()
	}
	if hidden+edges >= math.MaxInt32 {
		return fmt.Errorf("graph: %d hidden nodes and %d edges overflow the int32 reader index", hidden, edges)
	}
	// compileLevel counted each node's hidden readers into rdPtr[g+1];
	// the prefix sum makes them offsets, and a second walk in (level,
	// row) order fills every node's readers ascending.
	for g := 1; g <= hidden; g++ {
		n.rdPtr[g] += n.rdPtr[g-1]
	}
	n.rdRow = make([]int32, n.rdPtr[hidden])
	next := make([]int32, hidden)
	copy(next, n.rdPtr)
	for l := 1; l <= L; l++ {
		lv := n.Levels[l-1]
		for to := 0; to < lv.N; to++ {
			for e := lv.Ptr[to]; e < lv.Ptr[to+1]; e++ {
				if sl := lv.SrcLevel[e]; sl >= 1 {
					g := n.rowBase[sl] + lv.SrcIdx[e]
					n.rdRow[next[g]] = int32(n.rowBase[l] + to)
					next[g]++
				}
			}
		}
	}
	return nil
}

func (n *Net) compileLevel(l int) error {
	lv := n.level(l)
	m := &n.meta[l-1]
	if len(lv.Ptr) != lv.N+1 || lv.Ptr[0] != 0 {
		return fmt.Errorf("graph: level %d has malformed row pointers", l)
	}
	ne := lv.Ptr[lv.N]
	if len(lv.SrcLevel) != ne || len(lv.SrcIdx) != ne || len(lv.W) != ne {
		return fmt.Errorf("graph: level %d edge arrays disagree with Ptr[N]=%d", l, ne)
	}
	if lv.Bias != nil && len(lv.Bias) != lv.N {
		return fmt.Errorf("graph: level %d has %d biases for %d nodes", l, len(lv.Bias), lv.N)
	}
	for _, b := range lv.Bias {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return fmt.Errorf("graph: level %d has non-finite bias", l)
		}
	}
	seen := make([]bool, l) // source levels present
	for to := 0; to < lv.N; to++ {
		if lv.Ptr[to] > lv.Ptr[to+1] {
			return fmt.Errorf("graph: level %d has decreasing row pointers at node %d", l, to)
		}
		prevL, prevI := -1, -1
		for e := lv.Ptr[to]; e < lv.Ptr[to+1]; e++ {
			sl, si := lv.SrcLevel[e], lv.SrcIdx[e]
			if sl < 0 || sl >= l {
				return fmt.Errorf("graph: level %d node %d reads level %d (want 0..%d)", l, to, sl, l-1)
			}
			if si < 0 || si >= n.width(sl) {
				return fmt.Errorf("graph: level %d node %d reads node %d of level %d (width %d)", l, to, si, sl, n.width(sl))
			}
			if sl < prevL || (sl == prevL && si <= prevI) {
				return fmt.Errorf("graph: level %d node %d edges not sorted ascending by (level, index)", l, to)
			}
			if math.IsNaN(lv.W[e]) || math.IsInf(lv.W[e], 0) {
				return fmt.Errorf("graph: level %d node %d has non-finite weight", l, to)
			}
			prevL, prevI = sl, si
			seen[sl] = true
			if a := math.Abs(lv.W[e]); a > m.maxW {
				m.maxW = a
			}
			if sl >= 1 {
				if a := math.Abs(lv.W[e]); a > n.outMax[sl-1][si] {
					n.outMax[sl-1][si] = a
				}
				if l <= len(n.Levels) {
					n.rdPtr[n.rowBase[sl]+si+1]++
				}
			}
		}
	}
	m.srcLevels = make([]int, 0, 2)
	for v := 0; v < l; v++ {
		if seen[v] {
			m.srcLevels = append(m.srcLevels, v)
		}
	}
	m.offsets = make([]int, len(m.srcLevels))
	off := 0
	for i, v := range m.srcLevels {
		m.offsets[i] = off
		off += n.width(v)
	}
	m.concatW = off
	m.cut = off &^ 3
	m.prevOnly = len(m.srcLevels) == 0 || (len(m.srcLevels) == 1 && m.srcLevels[0] == l-1)
	// Edges are unique per node, so N full rows are the only way to
	// reach N × width edges from one source level.
	m.dense = len(m.srcLevels) == 1 && ne == lv.N*n.width(m.srcLevels[0])
	m.col = make([]int, ne)
	for e := 0; e < ne; e++ {
		i := sort.SearchInts(m.srcLevels, lv.SrcLevel[e])
		m.col[e] = m.offsets[i] + lv.SrcIdx[e]
	}
	m.csr = tensor.CSR{
		Rows: lv.N,
		Ptr:  lv.Ptr,
		Lvl:  lv.SrcLevel,
		Idx:  lv.SrcIdx,
		Col:  m.col,
		W:    lv.W,
		Cut:  m.cut,
	}
	return nil
}

// Validate checks structural consistency (CSR invariants, edge ranges
// and ordering, finite weights) and compiles the evaluation metadata.
func (n *Net) Validate() error { return n.compile() }

// NumLayers returns L, the number of hidden levels.
func (n *Net) NumLayers() int { return len(n.Levels) }

// Width returns the node count of level l (Model convention: 0 is the
// input, L+1 the output node).
func (n *Net) Width(l int) int {
	if l < 0 || l > len(n.Levels)+1 {
		panic(fmt.Sprintf("graph: Width(%d) out of range", l))
	}
	return n.width(l)
}

// Activation returns ϕ.
func (n *Net) Activation() activation.Func { return n.Act }

// MaxWeight returns w_m^{(l)} over the level's edges, biases excluded
// per the Model contract.
func (n *Net) MaxWeight(l int) float64 {
	n.mustCompile()
	return n.meta[l-1].maxW
}

// Weight returns the weight of the edge from node `from` of level l-1
// into node `to` of level l, or 0 when no such edge exists. Skip edges
// (source level < l-1) are NOT addressable here — engines evaluating
// graphs use the DAGModel ordinal addressing (InEdge) instead.
func (n *Net) Weight(l, to, from int) float64 {
	lv := n.level(l)
	if l == len(n.Levels)+1 {
		to = 0
	}
	lo, hi := lv.Ptr[to], lv.Ptr[to+1]
	// Edges are sorted by (SrcLevel, SrcIdx); find (l-1, from).
	i := lo + sort.Search(hi-lo, func(k int) bool {
		e := lo + k
		return lv.SrcLevel[e] > l-1 || (lv.SrcLevel[e] == l-1 && lv.SrcIdx[e] >= from)
	})
	if i < hi && lv.SrcLevel[i] == l-1 && lv.SrcIdx[i] == from {
		return lv.W[i]
	}
	return 0
}

// SrcLevels returns the sorted distinct source levels of level l.
func (n *Net) SrcLevels(l int) []int {
	n.mustCompile()
	return n.meta[l-1].srcLevels
}

// FanIn returns the in-degree of node `to` of level l.
func (n *Net) FanIn(l, to int) int {
	lv := n.level(l)
	if l == len(n.Levels)+1 {
		to = 0
	}
	return lv.Ptr[to+1] - lv.Ptr[to]
}

// InEdge returns the k-th in-edge of node `to` of level l in ascending
// (srcLevel, srcIdx) order.
func (n *Net) InEdge(l, to, k int) (srcLevel, srcIdx int, w float64) {
	lv := n.level(l)
	if l == len(n.Levels)+1 {
		to = 0
	}
	e := lv.Ptr[to] + k
	return lv.SrcLevel[e], lv.SrcIdx[e], lv.W[e]
}

// nodeSum accumulates node `to`'s in-edges over the full level outputs
// ys in the dense kernel's lane order (no bias). On a dense level that
// order is tensor.Dot's over the node's weights; otherwise each edge
// indexes its accumulator with tensor.AccLane, which costs no branch
// on random sparse columns (Dot's unrolled loop is faster still where
// the columns run in sequence).
func nodeSum(lv *Level, m *levelMeta, to int, ys [][]float64) float64 {
	if m.dense {
		return tensor.Dot(lv.W[lv.Ptr[to]:lv.Ptr[to+1]], ys[m.srcLevels[0]])
	}
	var s [4]float64
	cut := m.cut
	for e := lv.Ptr[to]; e < lv.Ptr[to+1]; e++ {
		s[tensor.AccLane(m.col[e], cut)] += lv.W[e] * ys[lv.SrcLevel[e]][lv.SrcIdx[e]]
	}
	return s[0] + s[1] + s[2] + s[3]
}

// nodeSumPrev is nodeSum for a prevOnly level, reading the previous
// level's outputs directly (edge column == SrcIdx there).
func nodeSumPrev(lv *Level, m *levelMeta, to int, y []float64) float64 {
	if m.dense {
		return tensor.Dot(lv.W[lv.Ptr[to]:lv.Ptr[to+1]], y)
	}
	var s [4]float64
	cut := m.cut
	for e := lv.Ptr[to]; e < lv.Ptr[to+1]; e++ {
		c := lv.SrcIdx[e]
		s[tensor.AccLane(c, cut)] += lv.W[e] * y[c]
	}
	return s[0] + s[1] + s[2] + s[3]
}

// LevelSums computes level l's pre-activation sums into dst from every
// level's outputs (ys[v] holds level v, ys[0] the input). skip follows
// the Model contract's skip-rows convention.
func (n *Net) LevelSums(l int, dst []float64, ys [][]float64, skip []int) {
	n.mustCompile()
	lv := n.Levels[l-1]
	m := &n.meta[l-1]
	si := 0
	for to := 0; to < lv.N; to++ {
		if si < len(skip) && skip[si] == to {
			si++
			continue
		}
		s := nodeSum(lv, m, to, ys)
		if lv.Bias != nil {
			s += lv.Bias[to]
		}
		dst[to] = s
	}
}

// RowSums computes the pre-activation sums of the listed rows of level
// l into dst, biases included — LevelSums' operations on those rows
// alone (nn.RowSummer).
func (n *Net) RowSums(l int, dst []float64, ys [][]float64, rows []int32) {
	n.mustCompile()
	lv := n.Levels[l-1]
	m := &n.meta[l-1]
	for _, r := range rows {
		s := nodeSum(lv, m, int(r), ys)
		if lv.Bias != nil {
			s += lv.Bias[r]
		}
		dst[r] = s
	}
}

// Readers returns the hidden rows that read node i of hidden level v,
// ascending, in the nn.RowSummer numbering.
func (n *Net) Readers(v, i int) []int32 {
	n.mustCompile()
	g := n.rowBase[v] + i
	return n.rdRow[n.rdPtr[g]:n.rdPtr[g+1]]
}

// LevelSumsLanes computes level l's pre-activation sums for every lane
// k into dsts[k] from that lane's per-level outputs srcs[k] (srcs[k][v]
// holds level v, srcs[k][0] the input), biases included — the
// multi-lane nn.LevelLaneSummer kernel. Each node's edge list streams
// from memory once per lane pair instead of once per lane, and every
// lane is bit-identical to a LevelSums call over the same sources.
func (n *Net) LevelSumsLanes(l int, dsts [][]float64, srcs [][][]float64) {
	n.mustCompile()
	lv := n.Levels[l-1]
	n.meta[l-1].csr.GatherLanesAddTo(dsts, srcs, lv.Bias)
}

// LayerSums is the layered Model kernel; it is only valid for levels
// that read nothing but level l-1 and panics otherwise — engines that
// support arbitrary topology use LevelSums via the DAGModel interface.
func (n *Net) LayerSums(l int, dst, y []float64, skip []int) {
	n.mustCompile()
	lv := n.Levels[l-1]
	m := &n.meta[l-1]
	if !m.prevOnly {
		panic(fmt.Sprintf("graph: LayerSums on level %d, which reads levels %v — evaluate via DAGModel.LevelSums", l, m.srcLevels))
	}
	si := 0
	for to := 0; to < lv.N; to++ {
		if si < len(skip) && skip[si] == to {
			si++
			continue
		}
		s := nodeSumPrev(lv, m, to, y)
		if lv.Bias != nil {
			s += lv.Bias[to]
		}
		dst[to] = s
	}
}

// outputBias returns the output node's bias (0 when absent; the output
// sum always adds it, matching the dense engine's OutputBias).
func (n *Net) outputBias() float64 {
	if n.Output.Bias != nil {
		return n.Output.Bias[0]
	}
	return 0
}

// OutputSum evaluates the linear output node on the last hidden level's
// outputs; valid only when the output reads nothing but level L.
func (n *Net) OutputSum(y []float64) float64 {
	n.mustCompile()
	L := len(n.Levels)
	m := &n.meta[L]
	if !m.prevOnly {
		panic(fmt.Sprintf("graph: OutputSum on an output reading levels %v — evaluate via DAGModel.OutputSumLevels", m.srcLevels))
	}
	return nodeSumPrev(n.Output, m, 0, y) + n.outputBias()
}

// OutputSumLevels evaluates the linear output node over every level's
// outputs.
func (n *Net) OutputSumLevels(ys [][]float64) float64 {
	n.mustCompile()
	return nodeSum(n.Output, &n.meta[len(n.Levels)], 0, ys) + n.outputBias()
}

// OutgoingWeight scores node `idx` of level l by its largest outgoing
// absolute weight over ALL out-edges — the next level, skip edges and
// the output node alike (fault.OutgoingScorer). For layer-expressible
// graphs this equals the generic next-layer scan, so adversarial plans
// agree with the lowered dense oracle's; for skip graphs it is the
// strictly better adversary.
func (n *Net) OutgoingWeight(l, idx int) float64 {
	n.mustCompile()
	return n.outMax[l-1][idx]
}
