package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMulAB(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := MulABInto(New(2, 2), a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if c.A[i] != v {
			t.Fatalf("MulABInto = %v, want %v", c.A, want)
		}
	}
}

func TestMulVariantsAgree(t *testing.T) {
	// Property: MulATBInto(c, d) == MulABInto(cᵀ, d), with cᵀ built by
	// TransposeInto, whose transpose is c again.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		m, k, n := rng.Intn(5)+1, rng.Intn(5)+1, rng.Intn(5)+1
		c := New(k, m)
		c.Randomize(rng, 1)
		ct := TransposeInto(New(m, k), c)
		for i := 0; i < k; i++ {
			for j := 0; j < m; j++ {
				if ct.At(j, i) != c.At(i, j) {
					t.Fatal("TransposeInto misplaced an element")
				}
			}
		}
		if ctt := TransposeInto(New(k, m), ct); !equalMat(ctt, c) {
			t.Fatal("transposing twice does not give the matrix back")
		}
		d := New(k, n)
		d.Randomize(rng, 1)
		x := MulATBInto(New(m, n), c, d)
		y := MulABInto(New(m, n), ct, d)
		for i := range x.A {
			if math.Abs(x.A[i]-y.A[i]) > 1e-12 {
				t.Fatal("MulATBInto disagrees with MulABInto on the transposed operand")
			}
		}
	}
}

func equalMat(a, b *Mat) bool {
	if a.R != b.R || a.C != b.C {
		return false
	}
	for i := range a.A {
		if a.A[i] != b.A[i] {
			return false
		}
	}
	return true
}

func TestIdentityMultiplication(t *testing.T) {
	f := func(vals [6]int8) bool {
		a := New(2, 3)
		for i := range vals {
			a.A[i] = float64(vals[i])
		}
		id := FromSlice(3, 3, []float64{1, 0, 0, 0, 1, 0, 0, 0, 1})
		c := MulABInto(New(2, 3), a, id)
		for i := range a.A {
			if c.A[i] != a.A[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddRowVecAndSumRows(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	m.AddRowVec([]float64{10, 20, 30})
	if m.At(0, 0) != 11 || m.At(1, 2) != 36 {
		t.Fatalf("AddRowVec wrong: %v", m.A)
	}
	s := m.SumRowsInto([]float64{7, 7, 7}) // stale contents must not leak in
	if s[0] != 25 || s[1] != 47 || s[2] != 69 {
		t.Fatalf("SumRowsInto = %v", s)
	}
}

func TestHStackCols(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 1, []float64{9, 8})
	c := HStackInto(New(2, 3), a, b)
	if c.At(0, 0) != 1 || c.At(1, 1) != 4 || c.At(0, 2) != 9 || c.At(1, 2) != 8 {
		t.Fatalf("HStackInto wrong: %v", c.A)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice(1, 2, []float64{1, 2})
	b := a.Clone()
	b.A[0] = 99
	if a.A[0] == 99 || b.R != 1 || b.C != 2 || b.A[1] != 2 {
		t.Error("Clone must deep-copy")
	}
}

func TestPanics(t *testing.T) {
	assertPanics := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	assertPanics("MulABInto shape", func() { MulABInto(New(2, 3), New(2, 3), New(2, 3)) })
	assertPanics("MulABInto out", func() { MulABInto(New(2, 2), New(2, 3), New(3, 3)) })
	assertPanics("MulATBInto shape", func() { MulATBInto(New(3, 3), New(2, 3), New(3, 3)) })
	assertPanics("MulATBInto out", func() { MulATBInto(New(2, 3), New(2, 3), New(2, 3)) })
	assertPanics("TransposeInto out", func() { TransposeInto(New(2, 3), New(2, 3)) })
	assertPanics("SumRowsInto len", func() { New(1, 2).SumRowsInto(make([]float64, 3)) })
	assertPanics("AddTo short src", func() { AddTo(make([]float64, 5), make([]float64, 4)) })
	assertPanics("FromSlice len", func() { FromSlice(2, 2, []float64{1}) })
	assertPanics("AddRowVec len", func() { New(1, 2).AddRowVec([]float64{1}) })
	assertPanics("HStackInto rows", func() { HStackInto(New(1, 4), New(1, 2), New(2, 2)) })
	assertPanics("HStackInto out", func() { HStackInto(New(1, 3), New(1, 2), New(1, 2)) })
	assertPanics("negative dims", func() { New(-1, 2) })
}
