package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestMatrixAtSet(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 || m.Data[5] != 5 {
		t.Fatal("row-major layout broken")
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatal("FromRows wrong layout")
	}
}

func TestFromRowsEmpty(t *testing.T) {
	m := FromRows(nil)
	if m.Rows != 0 || m.Cols != 0 {
		t.Fatal("FromRows(nil) not empty")
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := rng.New(2)
	m := RandomMatrix(r, 7, 5, 1)
	tt := m.Transpose().Transpose()
	if !m.EqualApprox(tt, 0) {
		t.Fatal("transpose twice differs from original")
	}
}

func TestTransposeValues(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Fatalf("Transpose wrong: %v", tr)
	}
}

func TestMulVecSmall(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	y := m.MulVec([]float64{1, 1})
	if !EqualApprox(y, []float64{3, 7, 11}, 1e-12) {
		t.Fatalf("MulVec = %v", y)
	}
}

func TestMulVecLargeParallelPath(t *testing.T) {
	r := rng.New(3)
	m := RandomMatrix(r, 300, 200, 1) // 60000 elements: parallel path
	x := make([]float64, 200)
	r.Floats(x, -1, 1)
	y := m.MulVec(x)
	for i := 0; i < m.Rows; i++ {
		want := 0.0
		for j := 0; j < m.Cols; j++ {
			want += m.At(i, j) * x[j]
		}
		if !almostEqual(y[i], want, 1e-9) {
			t.Fatalf("row %d: got %v want %v", i, y[i], want)
		}
	}
}

func TestMulVecT(t *testing.T) {
	r := rng.New(4)
	m := RandomMatrix(r, 13, 9, 1)
	x := make([]float64, 13)
	r.Floats(x, -1, 1)
	got := m.MulVecT(x)
	want := m.Transpose().MulVec(x)
	if !EqualApprox(got, want, 1e-10) {
		t.Fatalf("MulVecT %v != transpose MulVec %v", got, want)
	}
}

func TestAddOuterScaled(t *testing.T) {
	m := NewMatrix(2, 2)
	m.AddOuterScaled(2, []float64{1, 3}, []float64{5, 7})
	want := FromRows([][]float64{{10, 14}, {30, 42}})
	if !m.EqualApprox(want, 1e-12) {
		t.Fatalf("AddOuterScaled = %v", m)
	}
}

func TestMatMulMatchesNaive(t *testing.T) {
	r := rng.New(5)
	dims := [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 5, 5}, {17, 9, 13}, {70, 65, 80}, {130, 70, 129}}
	for _, d := range dims {
		a := RandomMatrix(r, d[0], d[1], 1)
		b := RandomMatrix(r, d[1], d[2], 1)
		fast := MatMul(a, b)
		slow := matMulNaive(a, b)
		if !fast.EqualApprox(slow, 1e-9) {
			t.Fatalf("MatMul %v disagrees with naive", d)
		}
	}
}

func TestMatMulDimPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(NewMatrix(2, 3), NewMatrix(4, 2))
}

func TestMatMulIdentity(t *testing.T) {
	r := rng.New(6)
	a := RandomMatrix(r, 8, 8, 1)
	id := NewMatrix(8, 8)
	for i := 0; i < 8; i++ {
		id.Set(i, i, 1)
	}
	if !MatMul(a, id).EqualApprox(a, 1e-12) {
		t.Fatal("A*I != A")
	}
	if !MatMul(id, a).EqualApprox(a, 1e-12) {
		t.Fatal("I*A != A")
	}
}

func TestMatMulAssociativityProperty(t *testing.T) {
	r := rng.New(8)
	f := func(x, y, z uint8) bool {
		n1, n2, n3, n4 := int(x%6)+1, int(y%6)+1, int(z%6)+1, int(x%5)+1
		a := RandomMatrix(r, n1, n2, 1)
		b := RandomMatrix(r, n2, n3, 1)
		c := RandomMatrix(r, n3, n4, 1)
		left := MatMul(MatMul(a, b), c)
		right := MatMul(a, MatMul(b, c))
		return left.EqualApprox(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulVecConsistencyProperty(t *testing.T) {
	// (A B) x == A (B x)
	r := rng.New(10)
	f := func(x, y, z uint8) bool {
		n1, n2, n3 := int(x%8)+1, int(y%8)+1, int(z%8)+1
		a := RandomMatrix(r, n1, n2, 1)
		b := RandomMatrix(r, n2, n3, 1)
		v := make([]float64, n3)
		r.Floats(v, -1, 1)
		left := MatMul(a, b).MulVec(v)
		right := a.MulVec(b.MulVec(v))
		return EqualApprox(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGlorotBound(t *testing.T) {
	r := rng.New(12)
	m := GlorotMatrix(r, 30, 20)
	bound := math.Sqrt(6.0 / 50.0)
	if m.MaxAbs() > bound {
		t.Fatalf("Glorot entry %v exceeds bound %v", m.MaxAbs(), bound)
	}
	if m.MaxAbs() < bound/10 {
		t.Fatal("Glorot entries suspiciously tiny")
	}
}

func TestCloneApplyScale(t *testing.T) {
	m := FromRows([][]float64{{1, -2}, {3, -4}})
	c := m.Clone()
	c.Apply(math.Abs)
	c.Scale(2)
	if m.At(0, 1) != -2 {
		t.Fatal("Clone aliases")
	}
	if c.At(0, 1) != 4 || c.At(1, 1) != 8 {
		t.Fatalf("Apply/Scale wrong: %v", c)
	}
}

func TestFrobenius(t *testing.T) {
	m := FromRows([][]float64{{3, 0}, {0, 4}})
	if !almostEqual(m.Frobenius(), 5, 1e-12) {
		t.Fatal("Frobenius wrong")
	}
}

func BenchmarkMatMul128(b *testing.B) {
	r := rng.New(1)
	a := RandomMatrix(r, 128, 128, 1)
	c := RandomMatrix(r, 128, 128, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(a, c)
	}
}

func BenchmarkMulVec1024(b *testing.B) {
	r := rng.New(1)
	m := RandomMatrix(r, 1024, 1024, 1)
	x := make([]float64, 1024)
	r.Floats(x, -1, 1)
	y := make([]float64, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVecTo(y, x)
	}
}

// TestMulVecAddToMatchesMulVec checks the fused matvec+bias kernel (and
// its paired-row inner loop) against Dot row by row, bit for bit, across
// odd/even row counts and column tails.
func TestMulVecAddToMatchesMulVec(t *testing.T) {
	r := rng.New(21)
	for _, rows := range []int{1, 2, 3, 8, 17} {
		for _, cols := range []int{1, 3, 4, 7, 16, 65} {
			m := RandomMatrix(r, rows, cols, 1)
			x := make([]float64, cols)
			r.Floats(x, -1, 1)
			b := make([]float64, rows)
			r.Floats(b, -1, 1)
			y := make([]float64, rows)
			m.MulVecAddTo(y, x, nil)
			for i := 0; i < rows; i++ {
				if want := Dot(m.Row(i), x); y[i] != want {
					t.Fatalf("%dx%d row %d: %v != %v", rows, cols, i, y[i], want)
				}
			}
			m.MulVecAddTo(y, x, b)
			for i := 0; i < rows; i++ {
				if want := Dot(m.Row(i), x) + b[i]; y[i] != want {
					t.Fatalf("%dx%d row %d with bias: %v != %v", rows, cols, i, y[i], want)
				}
			}
		}
	}
}

// TestMulVecAddRange checks the row-range variant leaves rows outside the
// range untouched.
func TestMulVecAddRange(t *testing.T) {
	r := rng.New(22)
	m := RandomMatrix(r, 9, 5, 1)
	x := make([]float64, 5)
	r.Floats(x, -1, 1)
	y := make([]float64, 9)
	Fill(y, -7)
	m.MulVecAddRange(y, x, nil, 2, 6)
	for i := 0; i < 9; i++ {
		if i >= 2 && i < 6 {
			if want := Dot(m.Row(i), x); y[i] != want {
				t.Fatalf("row %d: %v != %v", i, y[i], want)
			}
		} else if y[i] != -7 {
			t.Fatalf("row %d outside range was written", i)
		}
	}
}

// TestMatMulTransBInto checks C = A Bᵀ against MatMul with an explicit
// transpose.
func TestMatMulTransBInto(t *testing.T) {
	r := rng.New(24)
	for _, dims := range [][3]int{{3, 4, 5}, {1, 7, 2}, {70, 33, 66}} {
		a := RandomMatrix(r, dims[0], dims[1], 1)
		b := RandomMatrix(r, dims[2], dims[1], 1)
		c := NewMatrix(dims[0], dims[2])
		MatMulTransBInto(c, a, b)
		want := MatMul(a, b.Transpose())
		if !c.EqualApprox(want, 1e-12) {
			t.Fatalf("dims %v: mismatch", dims)
		}
	}
}
