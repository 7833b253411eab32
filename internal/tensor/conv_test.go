package tensor

import (
	"testing"

	"repro/internal/rng"
)

// denseRowFor materialises the virtual dense row a ConvAcc accumulates:
// width w, kernel k placed at columns off..off+len(k)-1.
func denseRowFor(w int, k []float64, off int) []float64 {
	row := make([]float64, w)
	copy(row[off:], k)
	return row
}

// TestConvAccMatchesDotBitExact sweeps widths, kernel sizes and offsets
// (including segments straddling the w&^3 cleanup cut) and requires the
// sparse accumulation to equal Dot on the lowered dense row bit for bit.
func TestConvAccMatchesDotBitExact(t *testing.T) {
	r := rng.New(1)
	for _, w := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33} {
		x := make([]float64, w)
		r.Floats(x, -1, 1)
		for klen := 1; klen <= w; klen++ {
			k := make([]float64, klen)
			r.Floats(k, -1, 1)
			for off := 0; off+klen <= w; off++ {
				acc := NewConvAcc(w)
				acc.Add(k, x, off)
				got := acc.Sum()
				want := Dot(denseRowFor(w, k, off), x)
				if got != want {
					t.Fatalf("w=%d klen=%d off=%d: sparse %v != dense %v", w, klen, off, got, want)
				}
			}
		}
	}
}

// TestConvAccMultiSegment covers the 2-D layout: several disjoint
// ascending segments forming one virtual row.
func TestConvAccMultiSegment(t *testing.T) {
	r := rng.New(2)
	const w = 29
	x := make([]float64, w)
	r.Floats(x, -1, 1)
	k1 := make([]float64, 3)
	k2 := make([]float64, 3)
	k3 := make([]float64, 4)
	r.Floats(k1, -1, 1)
	r.Floats(k2, -1, 1)
	r.Floats(k3, -1, 1)

	acc := NewConvAcc(w)
	acc.Add(k1, x, 2)
	acc.Add(k2, x, 11)
	acc.Add(k3, x, 25) // straddles the cut (28) tail
	got := acc.Sum()

	row := make([]float64, w)
	copy(row[2:], k1)
	copy(row[11:], k2)
	copy(row[25:], k3)
	want := Dot(row, x)
	if got != want {
		t.Fatalf("multi-segment sparse %v != dense %v", got, want)
	}

	// Reset reuses the accumulator for the next row.
	acc.Reset()
	acc.Add(k2, x, 0)
	if acc.Sum() != Dot(denseRowFor(w, k2, 0), x) {
		t.Fatal("Reset did not clear the lanes")
	}
}

// TestConvAccAllocs pins the accumulator as allocation-free.
func TestConvAccAllocs(t *testing.T) {
	x := make([]float64, 16)
	k := []float64{1, 2, 3}
	allocs := testing.AllocsPerRun(100, func() {
		acc := NewConvAcc(16)
		acc.Add(k, x, 4)
		_ = acc.Sum()
	})
	if allocs != 0 {
		t.Fatalf("ConvAcc allocates %v per run", allocs)
	}
}
