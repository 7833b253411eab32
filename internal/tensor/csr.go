package tensor

import (
	"fmt"

	"repro/internal/parallel"
)

// CSR is a compressed-sparse-row gather view over a virtual column
// concatenation: row r owns edges Ptr[r]..Ptr[r+1], and edge e reads
// source value number Idx[e] of source block Lvl[e] with weight W[e].
// Col[e] is the edge's column in the virtual concatenation of the
// source blocks and Cut its four-lane boundary (concat width &^ 3):
// columns below Cut feed accumulator Col&3, the tail feeds accumulator
// 0, exactly the dense kernel's (Dot's) four-way order on that
// concatenation. The sparse-DAG engine builds these views zero-copy
// over its per-level edge arrays.
type CSR struct {
	Rows int
	Ptr  []int
	Lvl  []int
	Idx  []int
	Col  []int
	W    []float64
	Cut  int
}

// csrParallelMin is the edges×lanes work floor past which the lanes
// gather distributes row ranges over goroutines — same order as the
// dense kernels' 1<<15 element threshold.
const csrParallelMin = 1 << 15

// GatherLanesAddTo computes, for every lane k,
//
//	ys[k][r] = Σ_e W[e]·srcs[k][Lvl[e]][Idx[e]]  (+ b[r])
//
// in one sweep over the edge list: each row's indices and weights are
// loaded once and applied across the lanes in paired-accumulator
// groups, mirroring MulVecLanesAddTo's register discipline (two lanes x
// four accumulators fill the vector registers without spilling). Per
// (row, lane) the accumulation replays the four-way order keyed by
// Col/Cut, so lane k is bit-identical to a scalar gather of the same
// row over srcs[k]. b may be nil. Outputs must not alias any source.
func (c *CSR) GatherLanesAddTo(ys [][]float64, srcs [][][]float64, b []float64) {
	if len(ys) != len(srcs) {
		panic(fmt.Sprintf("tensor: GatherLanesAddTo %d outputs for %d lanes", len(ys), len(srcs)))
	}
	for k := range ys {
		if len(ys[k]) != c.Rows {
			panic(fmt.Sprintf("tensor: GatherLanesAddTo lane %d output length %d, want %d", k, len(ys[k]), c.Rows))
		}
	}
	if b != nil && len(b) != c.Rows {
		panic("tensor: GatherLanesAddTo bias length mismatch")
	}
	if len(srcs) == 0 {
		return
	}
	if len(c.W)*len(srcs) >= csrParallelMin {
		d := mvPool.Get().(*mvDispatch)
		d.kind, d.csr, d.ys, d.srcs, d.b = mvCSRLanes, c, ys, srcs, b
		parallel.ForChunked(c.Rows, 16, d.run)
		d.release()
		return
	}
	c.gatherLanesRange(ys, srcs, b, 0, c.Rows)
}

// gatherLanesRange is the serial core of GatherLanesAddTo: rows outer,
// lanes inner in pairs, so a row's edge list (Idx, Col, W) is streamed
// once per pair while both lanes' gathers ride the same loads. Each
// edge adds into accumulator AccLane(col, cut) of an indexed
// [4]float64: columns are random on sparse wiring, so a branch on the
// column would mispredict about three times in four.
func (c *CSR) gatherLanesRange(ys [][]float64, srcs [][][]float64, b []float64, lo, hi int) {
	cut := c.Cut
	for r := lo; r < hi; r++ {
		start, end := c.Ptr[r], c.Ptr[r+1]
		k := 0
		for ; k+2 <= len(srcs); k += 2 {
			sa, sb := srcs[k], srcs[k+1]
			var a, bb [4]float64
			for e := start; e < end; e++ {
				w := c.W[e]
				lvl, idx := c.Lvl[e], c.Idx[e]
				j := AccLane(c.Col[e], cut)
				a[j] += w * sa[lvl][idx]
				bb[j] += w * sb[lvl][idx]
			}
			ys[k][r] = a[0] + a[1] + a[2] + a[3]
			ys[k+1][r] = bb[0] + bb[1] + bb[2] + bb[3]
		}
		if k < len(srcs) {
			s := srcs[k]
			var a [4]float64
			for e := start; e < end; e++ {
				a[AccLane(c.Col[e], cut)] += c.W[e] * s[c.Lvl[e]][c.Idx[e]]
			}
			ys[k][r] = a[0] + a[1] + a[2] + a[3]
		}
		if b != nil {
			for k := range ys {
				ys[k][r] += b[r]
			}
		}
	}
}

// AccLane returns the accumulator a gathered edge at concatenation column
// col feeds under the four-way order with boundary cut: col&3 below the
// cut, 0 for the tail. The sign of col-cut masks the index, so indexing
// a [4]float64 accumulator with it costs no branch.
func AccLane(col, cut int) int {
	return col & 3 & ((col - cut) >> 63)
}
