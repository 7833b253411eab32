package tensor

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// switchGather is the CSR lanes kernel as it was before the indexed
// accumulator: one (row, lane) at a time, branching on each edge's
// column. It stays here as the oracle the branch-free kernel must match
// bit for bit.
func switchGather(c *CSR, ys [][]float64, srcs [][][]float64, b []float64) {
	for k, s := range srcs {
		for r := 0; r < c.Rows; r++ {
			var a0, a1, a2, a3 float64
			for e := c.Ptr[r]; e < c.Ptr[r+1]; e++ {
				v := c.W[e] * s[c.Lvl[e]][c.Idx[e]]
				if col := c.Col[e]; col < c.Cut {
					switch col & 3 {
					case 0:
						a0 += v
					case 1:
						a1 += v
					case 2:
						a2 += v
					case 3:
						a3 += v
					}
				} else {
					a0 += v
				}
			}
			ys[k][r] = a0 + a1 + a2 + a3
			if b != nil {
				ys[k][r] += b[r]
			}
		}
	}
}

// randomCSR builds a gather view over source blocks of the given
// widths: every row reads a random ascending subset of their virtual
// concatenation with probability density per column (and at least one
// edge), with weights spread over several magnitudes so that a changed
// accumulation order would show in the low bits.
func randomCSR(r *rng.Rand, rows int, widths []int, density float64) *CSR {
	concat := 0
	for _, w := range widths {
		concat += w
	}
	c := &CSR{Rows: rows, Ptr: make([]int, rows+1), Cut: concat &^ 3}
	for row := 0; row < rows; row++ {
		off := 0
		for lvl, w := range widths {
			for idx := 0; idx < w; idx++ {
				last := lvl == len(widths)-1 && idx == w-1 && c.Ptr[row] == len(c.W)
				if r.Float64() < density || last {
					c.Lvl = append(c.Lvl, lvl)
					c.Idx = append(c.Idx, idx)
					c.Col = append(c.Col, off+idx)
					c.W = append(c.W, r.Range(-1, 1)*math.Pow(10, r.Range(-3, 3)))
				}
			}
			off += w
		}
		c.Ptr[row+1] = len(c.W)
	}
	return c
}

// laneSources draws each lane's source blocks.
func laneSources(r *rng.Rand, lanes int, widths []int) [][][]float64 {
	srcs := make([][][]float64, lanes)
	for k := range srcs {
		srcs[k] = make([][]float64, len(widths))
		for v, w := range widths {
			srcs[k][v] = make([]float64, w)
			r.Floats(srcs[k][v], -2, 2)
		}
	}
	return srcs
}

// TestGatherLanesMatchesSwitchKernel pins GatherLanesAddTo to the
// switch kernel bit for bit: concatenations whose width is not a
// multiple of 4 (tail edges feed accumulator 0), odd and even lane
// counts (the pair loop and its single-lane remainder), with and
// without bias, and shapes past the parallel threshold, where row
// ranges run on separate goroutines.
func TestGatherLanesMatchesSwitchKernel(t *testing.T) {
	r := rng.New(97)
	shapes := []struct {
		rows    int
		widths  []int
		density float64
	}{
		{1, []int{1}, 1},
		{5, []int{3}, 1},
		{7, []int{6, 5}, 0.5},
		{13, []int{9, 7, 2}, 0.3},
		{64, []int{64}, 0.1},
		{33, []int{30, 17, 11}, 0.6},
		{512, []int{255, 258}, 0.2}, // ≈52k edges: the parallel path at every lane count
	}
	parallel := false
	for _, sh := range shapes {
		c := randomCSR(r, sh.rows, sh.widths, sh.density)
		if c.Cut%4 != 0 {
			t.Fatalf("cut %d not a multiple of 4", c.Cut)
		}
		bias := make([]float64, sh.rows)
		r.Floats(bias, -1, 1)
		for _, lanes := range []int{1, 3, 8} {
			parallel = parallel || len(c.W)*lanes >= csrParallelMin
			for _, b := range [][]float64{nil, bias} {
				srcs := laneSources(r, lanes, sh.widths)
				got := make([][]float64, lanes)
				want := make([][]float64, lanes)
				for k := range got {
					got[k] = make([]float64, sh.rows)
					want[k] = make([]float64, sh.rows)
				}
				c.GatherLanesAddTo(got, srcs, b)
				switchGather(c, want, srcs, b)
				for k := range got {
					for row := range got[k] {
						if math.Float64bits(got[k][row]) != math.Float64bits(want[k][row]) {
							t.Fatalf("rows=%d widths=%v lanes=%d bias=%v: lane %d row %d = %v, switch kernel %v",
								sh.rows, sh.widths, lanes, b != nil, k, row, got[k][row], want[k][row])
						}
					}
				}
			}
		}
	}
	if !parallel {
		t.Fatal("no shape reached the parallel path; grow the largest one")
	}
}

// TestAccLane pins the branch-free index against its definition.
func TestAccLane(t *testing.T) {
	for cut := 0; cut <= 12; cut += 4 {
		for col := 0; col < cut+4; col++ {
			want := col & 3
			if col >= cut {
				want = 0
			}
			if got := AccLane(col, cut); got != want {
				t.Fatalf("AccLane(%d, %d) = %d, want %d", col, cut, got, want)
			}
		}
	}
}
