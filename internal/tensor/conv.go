package tensor

// Convolution kernels: sparse-row dot products that replay the EXACT
// accumulation order of Dot / MulVecAddTo over a virtual dense row.
//
// The dense matvec kernel accumulates a width-w row into four lanes —
// column c of the unrolled body lands in lane c mod 4, and the final
// w mod 4 columns (the cleanup loop) all land in lane 0 — then reduces
// lane0+lane1+lane2+lane3. Zero entries contribute exact zeros, so a
// convolutional layer (whose lowered dense row is zero outside the
// receptive field) can skip them entirely: replaying only the nonzero
// terms into the same lanes in ascending column order reproduces the
// dense result bit for bit. That identity is what lets the native conv
// forward pass stay bit-identical to evaluating the Lower/Lower2D
// network while doing R(l) multiplies per neuron instead of N_{l-1}.

// ConvAcc accumulates one virtual dense row of width w from contiguous
// nonzero segments. Segments must be added in ascending column order
// (which conv layers do naturally: channel-major, then window rows).
// The zero value is unusable; construct with NewConvAcc.
type ConvAcc struct {
	lanes [4]float64
	// cut is the first cleanup column, w &^ 3: columns at or beyond it
	// fold into lane 0, exactly like Dot's remainder loop.
	cut int
}

// NewConvAcc returns an accumulator for rows of width w.
func NewConvAcc(w int) ConvAcc { return ConvAcc{cut: w &^ 3} }

// Reset clears the lanes for the next row (the width is retained).
func (a *ConvAcc) Reset() { a.lanes = [4]float64{} }

// Add accumulates k[i]·x[off+i] for every kernel value, at absolute
// columns off..off+len(k)-1 of the virtual row.
func (a *ConvAcc) Add(k, x []float64, off int) {
	x = x[off : off+len(k)]
	if off+len(k) <= a.cut {
		// Entire segment inside the unrolled body: branch-free lanes.
		for i, kv := range k {
			a.lanes[(off+i)&3] += kv * x[i]
		}
		return
	}
	for i, kv := range k {
		if c := off + i; c < a.cut {
			a.lanes[c&3] += kv * x[i]
		} else {
			a.lanes[0] += kv * x[i]
		}
	}
}

// Sum reduces the lanes in Dot's order.
func (a *ConvAcc) Sum() float64 {
	return a.lanes[0] + a.lanes[1] + a.lanes[2] + a.lanes[3]
}
