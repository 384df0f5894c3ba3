package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"distredge/internal/simd"
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
	clear(out.A)
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

// sameBits fails unless got holds want's bits element for element. When
// got's storage runs on past the matrix (staleOut's guards), the guard
// elements must still hold guardBits.
func sameBits(t *testing.T, name string, got, want *Mat) {
	t.Helper()
	for i := range want.A {
		if math.Float64bits(got.A[i]) != math.Float64bits(want.A[i]) {
			t.Fatalf("%s %dx%d: element %d = %v (%#x), reference %v (%#x)", name, got.R, got.C,
				i, got.A[i], math.Float64bits(got.A[i]), want.A[i], math.Float64bits(want.A[i]))
		}
	}
	for i, v := range got.A[len(got.A):cap(got.A)] {
		if math.Float64bits(v) != guardBits {
			t.Fatalf("%s %dx%d: guard element %d past the matrix overwritten with %v", name, got.R, got.C, i, v)
		}
	}
}

// TestMulKernelsBitIdentical pins the blocked kernels to the reference
// loops with math.Float64bits over seeded random shapes of 1..130 in every
// dimension — across the 64-term K-block, the 8-lane AVX-512 gather, every
// 16-column AVX2 tile and 32-column AVX-512 block and every column tail —
// on inputs with about half their elements zero, an all-zero row, an
// all-zero matrix and empty shapes. One element of b is +Inf and a -0 sits
// in its row's column of a: only a kernel that skips exactly the zero
// a-elements the reference skips keeps NaN out of those sums. Separate
// cases put one NaN into a, in another output row than the -0's, which a
// kernel must keep as the reference does, while every other row is still
// compared bit for bit. Explicit narrow products (1–7 columns) cover
// every row tail of the AVX-512 kernel that runs lanes across output
// rows; rows whose first K-block gathers nothing (or only the first
// does), the 1-row Action products and the wide weight gradients have
// cases of their own. Every output starts stale, which the first K-block
// must overwrite, and runs on into guard elements that must come back
// untouched. The whole table runs once on each path
// of mulPaths that the CPU and OS support; a b too short for the product
// panics with a bounds error on every path, and no kernel may allocate.
func TestMulKernelsBitIdentical(t *testing.T) {
	if simd.AVX2 && !useAVX2 {
		t.Fatal("CPUID and XGETBV report AVX2, but the AVX2 tile kernel is not selected")
	}
	if simd.AVX512 && !useAVX512 {
		t.Fatal("CPUID and XGETBV report AVX-512, but the AVX-512 kernels are not selected")
	}
	for _, p := range mulPaths {
		if !p.supported() {
			t.Logf("no %s on this CPU: that path is not tested", p.name)
			continue
		}
		p.use(t)
		t.Run(p.name, testMulKernels)
	}
}

// A mulPath selects one set of MulABInto/MulATBInto kernels. The AVX-512
// path keeps the AVX2 switch on, as a CPU with AVX-512 runs it.
type mulPath struct {
	name         string
	avx2, avx512 bool
}

var mulPaths = []mulPath{{"portable", false, false}, {"avx2", true, false}, {"avx512", true, true}}

// supported reports whether the CPU and OS can run the path.
func (p mulPath) supported() bool {
	return (!p.avx2 || simd.AVX2) && (!p.avx512 || simd.AVX512)
}

// use selects the path until tb's cleanup, which restores the switches.
func (p mulPath) use(tb testing.TB) {
	saved2, saved512 := useAVX2, useAVX512
	tb.Cleanup(func() { useAVX2, useAVX512 = saved2, saved512 })
	useAVX2, useAVX512 = p.avx2, p.avx512
}

func pathName(avx2 bool) string {
	if avx2 {
		return "avx2"
	}
	return "portable"
}

func testMulKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dim := func() int { return 1 + rng.Intn(130) }
	// check compares both kernels with the references on one m×k×n product.
	// zeroA clears a. nan (m ≥ 2) puts a NaN into a, in an output row other
	// than the -0's, so only that row of the product is NaN.
	check := func(m, k, n int, zeroA, nan bool) {
		other := func(r int) int { return (r + 1 + rng.Intn(m-1)) % m }
		b := sparseRandom(rng, k, n)
		kInf := rng.Intn(k)
		b.Row(kInf)[rng.Intn(n)] = math.Inf(1)

		a := sparseRandom(rng, m, k)
		if zeroA {
			clear(a.A)
		}
		neg := rng.Intn(m)
		a.Row(neg)[kInf] = math.Copysign(0, -1)
		if nan {
			a.Row(other(neg))[rng.Intn(k)] = math.NaN()
		}
		got, want := staleOut(rng, m, n), New(m, n)
		refMulAB(want, a, b)
		sameBits(t, "MulABInto", MulABInto(got, a, b), want)

		at := sparseRandom(rng, k, m)
		if zeroA {
			clear(at.A)
		}
		neg = rng.Intn(m)
		at.Row(kInf)[neg] = math.Copysign(0, -1)
		if nan {
			at.Row(rng.Intn(k))[other(neg)] = math.NaN()
		}
		gotT, wantT := staleOut(rng, m, n), New(m, n)
		refMulATB(wantT, at, b)
		sameBits(t, "MulATBInto", MulATBInto(gotT, at, b), wantT)
	}
	for trial := 0; trial < 150; trial++ {
		check(dim(), dim(), dim(), false, false)
	}
	// Every K-block and 8-lane gather edge and every column tail
	// explicitly, then the zero matrix.
	gatherEdges := []int{1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 128, 129, 130}
	for _, k := range gatherEdges {
		for _, n := range []int{1, 3, 4, 5, 7, 8, 9, 12, 13, 15, 16, 17, 24, 31, 32, 33, 47, 48} {
			check(1+rng.Intn(5), k, n, false, false)
		}
	}
	check(17, 130, 29, true, false)

	// A NaN in a at every gather edge and in random shapes: the gather must
	// keep it, as Go's av != 0 does.
	for _, k := range gatherEdges {
		check(2+rng.Intn(5), k, dim(), false, true)
	}
	for trial := 0; trial < 30; trial++ {
		check(2+rng.Intn(129), dim(), dim(), false, true)
	}

	// Narrow products, fewer than eight columns: with AVX-512 and at least
	// eight rows their lanes run across output rows, so every row tail
	// and K-block edge explicitly, with the +Inf/−0 probe, and again with
	// a NaN in a.
	for n := 1; n < 8; n++ {
		for _, m := range []int{1, 7, 8, 9, 31, 32, 33, 65} {
			for _, k := range []int{1, 8, 63, 64, 65, 130} {
				check(m, k, n, false, false)
				if m >= 2 {
					check(m, k, n, false, true)
				}
			}
		}
	}

	// K-blocks that gather nothing. Rows (of a; columns of aᵀ) whose first
	// 64-term block holds only +0 or only −0 while a later block has
	// terms, rows with terms in the first block only and rows with no term
	// at all: the first block must write +0 sums into the stale output for
	// a row it gathers nothing for, and a later block must load the row
	// back or leave it as it is. Every shape has eight or more columns or
	// fewer than eight rows, so none takes the narrow kernel.
	for _, k := range []int{65, 130, 400} {
		for _, sh := range [][2]int{{5, 3}, {7, 11}, {9, 32}, {12, 33}, {6, 40}} {
			m, n := sh[0], sh[1]
			b := sparseRandom(rng, k, n)
			a, at := sparseRandom(rng, m, k), sparseRandom(rng, k, m)
			for i := 0; i < m; i++ {
				lo, hi, zero := 0, kBlock, 0.0 // the first block empty
				switch i % 5 {
				case 1:
					zero = math.Copysign(0, -1)
				case 2:
					lo, hi = kBlock, k // terms in the first block only
				case 3:
					hi = k // no term at all
				case 4:
					continue
				}
				for kk := lo; kk < hi; kk++ {
					a.Row(i)[kk], at.Row(kk)[i] = zero, zero
				}
				if hi-lo < k { // one term outside the zeroed blocks
					live := k - 1
					if lo > 0 {
						live = rng.Intn(kBlock)
					}
					a.Row(i)[live], at.Row(live)[i] = 0.5, -0.5
				}
			}
			got, want := staleOut(rng, m, n), New(m, n)
			refMulAB(want, a, b)
			sameBits(t, "MulABInto", MulABInto(got, a, b), want)
			gotT, wantT := staleOut(rng, m, n), New(m, n)
			refMulATB(wantT, at, b)
			sameBits(t, "MulATBInto", MulATBInto(gotT, at, b), wantT)
		}
	}

	// The 1-row products of the per-step Action forward (a state of 11 or
	// a 32-wide hidden row into a 3-wide head, any 1–7 and 31 or 33
	// columns), and the wide weight gradients of the update, MulATBInto
	// into 11×32 and 32×32 over batches of 32 and 64 rows.
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 31, 33} {
		for _, k := range []int{1, 11, 32, 65} {
			check(1, k, n, false, false)
		}
	}
	for _, m := range []int{11, 32} {
		for _, k := range []int{32, 64} {
			check(m, k, 32, false, false)
			check(m, k, 32, false, true)
		}
	}

	// Empty shapes: no term, no column or no row is a product too.
	for _, sh := range [][3]int{{3, 5, 0}, {3, 0, 4}, {0, 5, 4}, {0, 0, 0}} {
		m, k, n := sh[0], sh[1], sh[2]
		a, at, b := New(m, k), New(k, m), New(k, n)
		a.Randomize(rng, 1)
		at.Randomize(rng, 1)
		b.Randomize(rng, 1)
		got, gotT := New(m, n), New(m, n)
		got.Randomize(rng, 1)
		gotT.Randomize(rng, 1)
		want, wantT := New(m, n), New(m, n)
		refMulAB(want, a, b)
		refMulATB(wantT, at, b)
		sameBits(t, "MulABInto", MulABInto(got, a, b), want)
		sameBits(t, "MulATBInto", MulATBInto(gotT, at, b), wantT)
	}

	// A b one element short of its shape: the last term's row of the last
	// tile or masked group would read past the end, and the kernels must
	// panic instead. Nine rows of one or three columns take the narrow
	// kernel.
	for _, sh := range [][2]int{{3, 1}, {3, 16}, {3, 32}, {3, 35}, {9, 1}, {9, 3}} {
		m, n := sh[0], sh[1]
		a, at, b := New(m, 5), New(5, m), New(5, n)
		a.Randomize(rng, 1) // dense: the last row of b is always read
		at.Randomize(rng, 1)
		b.A = b.A[:len(b.A)-1]
		mustPanicOutOfRange(t, "MulABInto", func() { MulABInto(New(m, n), a, b) })
		mustPanicOutOfRange(t, "MulATBInto", func() { MulATBInto(New(m, n), at, b) })
	}

	// At the paper's widths (400 × 200) the gather arrays stay on the stack,
	// and the narrow kernel allocates nothing either.
	for _, n := range []int{200, 3} {
		a, b, out := sparseRandom(rng, 64, 400), sparseRandom(rng, 400, n), New(64, n)
		if allocs := testing.AllocsPerRun(10, func() { MulABInto(out, a, b) }); allocs != 0 {
			t.Errorf("MulABInto into 64x%d allocates %v times per call", n, allocs)
		}
		at, d, g := sparseRandom(rng, 64, 400), sparseRandom(rng, 64, n), New(400, n)
		if allocs := testing.AllocsPerRun(10, func() { MulATBInto(g, at, d) }); allocs != 0 {
			t.Errorf("MulATBInto into 400x%d allocates %v times per call", n, allocs)
		}
	}
}

// guardBits marks the elements past a staleOut matrix: a signalling NaN,
// which no arithmetic result is (arithmetic quiets a NaN) and no input of
// the tables holds.
const guardBits = 0x7ff4deadbeef0001

// staleOut returns an r×c output matrix full of stale random values, which
// must not leak into a result. Its storage runs on into four guard
// elements that sameBits checks too, so a kernel that writes past the
// matrix fails.
func staleOut(rng *rand.Rand, r, c int) *Mat {
	buf := make([]float64, r*c+4)
	m := FromSlice(r, c, buf[:r*c])
	m.Randomize(rng, 1)
	for i := r * c; i < len(buf); i++ {
		buf[i] = math.Float64frombits(guardBits)
	}
	return m
}

// sameValues is sameBits with every NaN read as one NaN. Where a sum
// meets two NaNs (a NaN input and the NaN of +Inf + −Inf), IEEE 754 leaves
// open which one comes out, and the compiler orders the reference loop's
// operands as its registers fall (see Blend's row in
// testElementwiseKernels): only the payload is left unpinned, a NaN must
// still be a NaN.
func sameValues(t *testing.T, name string, got, want *Mat) {
	t.Helper()
	for _, m := range []*Mat{got, want} {
		for i, v := range m.A {
			if math.IsNaN(v) {
				m.A[i] = math.NaN()
			}
		}
	}
	sameBits(t, name, got, want)
}

// TestMatrixHelpersBitIdentical pins TransposeInto, AddRowVec and
// SumRowsInto to the reference loops below, bit for bit, at every shape of
// 0–70 rows by 0–70 columns: empty, 1-row and 1-column matrices, every
// 8-lane tail and every edge of an 8-row group or a 32-column block. The
// values are salted with ±0, ±Inf, NaN and subnormals (elementwiseValues);
// the sums leave a NaN's payload open (sameValues), the transpose pins it.
// Every output starts stale and runs on into guard elements that must come
// back untouched. The table runs once on each path of mulPaths that the
// CPU and OS support; a matrix one element short panics with a bounds
// error on every path, and no helper may allocate.
func TestMatrixHelpersBitIdentical(t *testing.T) {
	if simd.AVX512 && !useAVX512 {
		t.Fatal("CPUID and XGETBV report AVX-512, but the AVX-512 kernels are not selected")
	}
	for _, p := range mulPaths {
		if !p.supported() {
			t.Logf("no %s on this CPU: that path is not tested", p.name)
			continue
		}
		p.use(t)
		t.Run(p.name, testMatrixHelpers)
	}
}

func testMatrixHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for r := 0; r <= 70; r++ {
		for c := 0; c <= 70; c++ {
			m := FromSlice(r, c, elementwiseValues(rng, r*c)[:r*c])

			want := New(c, r)
			for i := 0; i < r; i++ {
				for j := 0; j < c; j++ {
					want.A[j*r+i] = m.A[i*c+j]
				}
			}
			sameBits(t, "TransposeInto", TransposeInto(staleOut(rng, c, r), m), want)

			sums, wantSums := staleOut(rng, 1, c), New(1, c)
			for i := 0; i < r; i++ {
				for j, v := range m.Row(i) {
					wantSums.A[j] += v
				}
			}
			m.SumRowsInto(sums.A)
			sameValues(t, "SumRowsInto", sums, wantSums)

			v := elementwiseValues(rng, c)[:c]
			got, want := staleOut(rng, r, c), m.Clone()
			copy(got.A, m.A)
			for i := 0; i < r; i++ {
				for j, x := range v {
					want.A[i*c+j] += x
				}
			}
			got.AddRowVec(v)
			sameValues(t, "AddRowVec", got, want)
		}
	}

	// One element short of its shape, the input or the output: the last
	// row's read or write would run past the end, and every path must
	// panic instead.
	for _, sh := range [][2]int{{1, 3}, {9, 3}, {9, 1}, {32, 32}, {5, 70}} {
		r, c := sh[0], sh[1]
		short := func(r, c int) *Mat { return &Mat{R: r, C: c, A: make([]float64, r*c-1)} }
		mustPanicOutOfRange(t, "TransposeInto", func() { TransposeInto(New(c, r), short(r, c)) })
		mustPanicOutOfRange(t, "TransposeInto", func() { TransposeInto(short(c, r), New(r, c)) })
		mustPanicOutOfRange(t, "AddRowVec", func() { short(r, c).AddRowVec(make([]float64, c)) })
		mustPanicOutOfRange(t, "SumRowsInto", func() { short(r, c).SumRowsInto(make([]float64, c)) })
	}

	for _, c := range []int{3, 32, 400} {
		m, mt, v := New(64, c), New(c, 64), make([]float64, c)
		for _, op := range []struct {
			name string
			f    func()
		}{
			{"TransposeInto", func() { TransposeInto(mt, m) }},
			{"AddRowVec", func() { m.AddRowVec(v) }},
			{"SumRowsInto", func() { m.SumRowsInto(v) }},
		} {
			if n := testing.AllocsPerRun(10, op.f); n != 0 {
				t.Errorf("%s of 64x%d allocates %v times per call", op.name, c, n)
			}
		}
	}
}

// mustPanicOutOfRange runs f and fails unless it panics with a runtime
// bounds error (an index or slice-conversion out of range).
func mustPanicOutOfRange(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		err, ok := r.(runtime.Error)
		if !ok || !strings.Contains(err.Error(), "out of range") && !strings.Contains(err.Error(), "with length") {
			t.Errorf("%s on a truncated b: panic %v, want a bounds error", name, r)
		}
	}()
	f()
}

// BenchmarkMulKernels times MulABInto at the quick budget's DDPG shapes
// (batch 32: the 11-wide critic input, a 32×32 hidden layer, the 3-wide
// actor head and the critic's 1-wide Q head; one row: the per-step
// Action forward into the first hidden layer and into the 3-wide head)
// and at the paper's widest layer (batch 64, 400 × 200); MulATBInto into
// the wide 32×32 and 11×32 weight gradients of the update and the 32×1
// and 32×3 ones of the two heads; and TransposeInto, AddRowVec and
// SumRowsInto at 32×32 and 32×3. Every row runs on every kernel path the
// CPU supports. a has about half its elements zero, as ReLU leaves
// activations.
func BenchmarkMulKernels(b *testing.B) {
	// run times f on every supported path under name.
	run := func(name string, f func()) {
		for _, p := range mulPaths {
			if !p.supported() {
				continue
			}
			b.Run(name+"/"+p.name, func(b *testing.B) {
				p.use(b)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					f()
				}
			})
		}
	}
	for _, sh := range []struct{ m, k, n int }{{32, 11, 32}, {32, 32, 32}, {32, 32, 3}, {32, 32, 1}, {1, 11, 32}, {1, 32, 3}, {64, 400, 200}} {
		rng := rand.New(rand.NewSource(1))
		a, bm, out := sparseRandom(rng, sh.m, sh.k), New(sh.k, sh.n), New(sh.m, sh.n)
		bm.Randomize(rng, 1)
		run(fmt.Sprintf("%dx%dx%d", sh.m, sh.k, sh.n), func() { MulABInto(out, a, bm) })
	}
	for _, sh := range []struct{ m, n int }{{32, 32}, {11, 32}, {32, 1}, {32, 3}} {
		rng := rand.New(rand.NewSource(1))
		a, d, out := sparseRandom(rng, 32, sh.m), New(32, sh.n), New(sh.m, sh.n)
		d.Randomize(rng, 1)
		run(fmt.Sprintf("ATB32x%dx%d", sh.m, sh.n), func() { MulATBInto(out, a, d) })
	}
	for _, c := range []int{32, 3} {
		rng := rand.New(rand.NewSource(1))
		m, mt, v := New(32, c), New(c, 32), make([]float64, c)
		m.Randomize(rng, 1)
		run(fmt.Sprintf("Transpose32x%d", c), func() { TransposeInto(mt, m) })
		run(fmt.Sprintf("AddRowVec32x%d", c), func() { m.AddRowVec(v) })
		run(fmt.Sprintf("SumRows32x%d", c), func() { m.SumRowsInto(v) })
	}
}
