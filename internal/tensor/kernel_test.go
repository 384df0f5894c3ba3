package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// refMulAB is the straightforward k-outer a·b loop: ascending k per output
// element, zero a-elements skipped. MulABInto must match it bit for bit.
func refMulAB(out, a, b *Mat) {
	for i := 0; i < a.R; i++ {
		orow := out.Row(i)
		clear(orow)
		for k, av := range a.Row(i) {
			if av == 0 {
				continue
			}
			for j, bv := range b.Row(k) {
				orow[j] += av * bv
			}
		}
	}
}

// refMulATB is the straightforward k-outer aᵀ·b loop with the same order
// and zero skip. MulATBInto must match it bit for bit.
func refMulATB(out, a, b *Mat) {
	out.Zero()
	for k := 0; k < a.R; k++ {
		brow := b.Row(k)
		for i, av := range a.Row(k) {
			if av == 0 {
				continue
			}
			orow := out.Row(i)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// sparseRandom fills m with U(-1,1) values, about half of them zeroed (as
// ReLU leaves activations), plus one all-zero row when m has more than one.
func sparseRandom(rng *rand.Rand, r, c int) *Mat {
	m := New(r, c)
	for i := range m.A {
		if rng.Intn(2) == 0 {
			m.A[i] = 2*rng.Float64() - 1
		}
	}
	if r > 1 {
		clear(m.Row(rng.Intn(r)))
	}
	return m
}

func sameBits(t *testing.T, name string, got, want *Mat) {
	t.Helper()
	for i := range want.A {
		if math.Float64bits(got.A[i]) != math.Float64bits(want.A[i]) {
			t.Fatalf("%s %dx%d: element %d = %v (%#x), reference %v (%#x)", name, got.R, got.C,
				i, got.A[i], math.Float64bits(got.A[i]), want.A[i], math.Float64bits(want.A[i]))
		}
	}
}

// TestMulKernelsBitIdentical pins the blocked kernels to the reference
// loops with math.Float64bits over seeded random shapes of 1..130 in every
// dimension — across the 64-term K-block and every 8/4/1 column tail — on
// inputs with about half their elements zero, an all-zero row, and an
// all-zero matrix. One element of b is +Inf and a -0 sits in its row's
// column of a: only a kernel that skips exactly the zero a-elements the
// reference skips keeps NaN out of those sums. Neither kernel may allocate.
func TestMulKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dim := func() int { return 1 + rng.Intn(130) }
	check := func(m, k, n int, zeroA bool) {
		b := sparseRandom(rng, k, n)
		kInf := rng.Intn(k)
		b.Row(kInf)[rng.Intn(n)] = math.Inf(1)

		a := sparseRandom(rng, m, k)
		if zeroA {
			a.Zero()
		}
		a.Row(rng.Intn(m))[kInf] = math.Copysign(0, -1)
		got, want := New(m, n), New(m, n)
		got.Randomize(rng, 1) // stale contents must not leak into the product
		refMulAB(want, a, b)
		sameBits(t, "MulABInto", MulABInto(got, a, b), want)

		at := sparseRandom(rng, k, m)
		if zeroA {
			at.Zero()
		}
		at.Row(kInf)[rng.Intn(m)] = math.Copysign(0, -1)
		gotT, wantT := New(m, n), New(m, n)
		gotT.Randomize(rng, 1)
		refMulATB(wantT, at, b)
		sameBits(t, "MulATBInto", MulATBInto(gotT, at, b), wantT)
	}
	for trial := 0; trial < 150; trial++ {
		check(dim(), dim(), dim(), false)
	}
	// Every K-block edge and column tail explicitly, then the zero matrix.
	for _, k := range []int{1, 63, 64, 65, 128, 129, 130} {
		for _, n := range []int{1, 3, 4, 5, 7, 8, 9, 12, 13, 16, 17} {
			check(1+rng.Intn(5), k, n, false)
		}
	}
	check(17, 130, 29, true)

	// At the paper's widths (400 × 200) the gather arrays stay on the stack.
	a, b, out := sparseRandom(rng, 64, 400), sparseRandom(rng, 400, 200), New(64, 200)
	if n := testing.AllocsPerRun(10, func() { MulABInto(out, a, b) }); n != 0 {
		t.Errorf("MulABInto allocates %v times per call", n)
	}
	at, d, g := sparseRandom(rng, 64, 400), sparseRandom(rng, 64, 200), New(400, 200)
	if n := testing.AllocsPerRun(10, func() { MulATBInto(g, at, d) }); n != 0 {
		t.Errorf("MulATBInto allocates %v times per call", n)
	}
}
