package tensor

import (
	"math"
	"math/rand"
	"testing"

	"distredge/internal/simd"
)

// The scalar loops the elementwise operations replaced, written out as the
// network and optimiser code had them: every path must give their bits.

func refReLU(x []float64) {
	for i, v := range x {
		x[i] = max(v, 0)
	}
}

func refReLUGrad(d, y []float64) {
	for i, v := range y {
		if v <= 0 {
			d[i] = 0
		}
	}
}

func refAddTo(dst, src []float64) {
	for i, v := range src {
		dst[i] += v
	}
}

func refBlend(dst, src []float64, t float64) {
	for i := range dst {
		dst[i] = t*src[i] + (1-t)*dst[i]
	}
}

func refAdamStep(p, g, m, v []float64, b1, b2, lr, c1, c2, eps float64) {
	ob1, ob2 := 1-b1, 1-b2
	for i := range p {
		gv := g[i]
		m[i] = b1*m[i] + ob1*gv
		v[i] = b2*v[i] + ob2*gv*gv
		p[i] -= lr * (m[i] / c1) / (math.Sqrt(v[i]/c2) + eps)
	}
}

// specials are the values whose handling a vector kernel could get wrong:
// signed zeros, infinities, NaN, subnormals, and magnitudes whose squares
// overflow or underflow.
var specials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.5e-310, -3e-320,
	1e300, -1e300, 1e-300, -1e-300, 1, -1,
}

// elementwiseValues returns n values, about a third of them specials and the
// rest U(-1,1) at a random scale, and four guard values past the end that no
// operation on the first n may touch.
func elementwiseValues(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n+4)
	for i := range x {
		if rng.Intn(3) == 0 {
			x[i] = specials[rng.Intn(len(specials))]
		} else {
			x[i] = (2*rng.Float64() - 1) * math.Pow(10, float64(rng.Intn(7)-3))
		}
	}
	return x
}

// sameFloats fails unless got and want hold the same bits element by
// element, guards included. With anyNaN a NaN matches any NaN: see Blend's
// row in testElementwiseKernels.
func sameFloats(t *testing.T, name string, n int, got, want []float64, anyNaN bool) {
	t.Helper()
	for i := range want {
		if anyNaN && math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s, length %d: element %d = %v (%#x), scalar loop %v (%#x)", name, n,
				i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestElementwiseKernelsBitIdentical pins ReLU, ReLUGrad, AddTo, Blend and
// AdamStep to the scalar loops they replaced, bit for bit, at every length
// 0–67 (every 4-lane tail, several times over) on inputs salted with ±0,
// ±Inf, NaN, subnormals and magnitudes of 1e±300 (gradients whose squares
// overflow or vanish). Four guard elements past each slice must come back
// untouched. The table runs once on the portable loops and once on the AVX2
// kernels, which run wherever the CPU and OS support them, and no operation
// may allocate.
func TestElementwiseKernelsBitIdentical(t *testing.T) {
	if simd.AVX2 && !useAVX2 {
		t.Fatal("CPUID and XGETBV report AVX2, but the AVX2 kernels are not selected")
	}
	saved := useAVX2
	t.Cleanup(func() { useAVX2 = saved })
	for _, avx2 := range []bool{false, true} {
		if avx2 && !simd.AVX2 {
			t.Log("no AVX2 on this CPU: the elementwise kernels are not tested, only the portable loops")
			continue
		}
		useAVX2 = avx2
		t.Run(pathName(avx2), testElementwiseKernels)
	}
}

func testElementwiseKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	clone := func(x []float64) []float64 { return append([]float64(nil), x...) }
	for n := 0; n <= 67; n++ {
		for trial := 0; trial < 4; trial++ {
			x := elementwiseValues(rng, n)
			want := clone(x)
			refReLU(want[:n])
			ReLU(x[:n])
			sameFloats(t, "ReLU", n, x, want, false)

			d, y := elementwiseValues(rng, n), elementwiseValues(rng, n)
			want = clone(d)
			refReLUGrad(want[:n], y[:n])
			ReLUGrad(d[:n], y)
			sameFloats(t, "ReLUGrad", n, d, want, false)

			dst, src := elementwiseValues(rng, n), elementwiseValues(rng, n)
			want = clone(dst)
			refAddTo(want[:n], src[:n])
			AddTo(dst[:n], src)
			sameFloats(t, "AddTo", n, dst, want, false)

			// At t = 1 an infinite dst makes (1−t)·dst a NaN of its own,
			// and where src is a NaN too the sum adds two NaNs. IEEE 754
			// leaves open which one comes out, and the compiler orders a
			// commutative operation's operands as its registers fall, so
			// the scalar loop's own answer there depends on where it is
			// compiled: only Blend's NaN payloads are left unpinned.
			tau := []float64{0.01, 0.5, 1, 0.3}[trial]
			dst, src = elementwiseValues(rng, n), elementwiseValues(rng, n)
			want = clone(dst)
			refBlend(want[:n], src[:n], tau)
			Blend(dst[:n], src, tau)
			sameFloats(t, "Blend", n, dst, want, true)

			step := []float64{1, 2, 7, 1000}[trial]
			b1, b2, lr, eps := 0.9, 0.999, []float64{1e-3, 1e-4, 1e-2, 1}[trial], 1e-8
			c1, c2 := 1-math.Pow(b1, step), 1-math.Pow(b2, step)
			p, g := elementwiseValues(rng, n), elementwiseValues(rng, n)
			m, v := elementwiseValues(rng, n), elementwiseValues(rng, n)
			for i := range v {
				v[i] = math.Abs(v[i]) // a second moment is never negative
			}
			wantP, wantM, wantV := clone(p), clone(m), clone(v)
			refAdamStep(wantP[:n], g[:n], wantM[:n], wantV[:n], b1, b2, lr, c1, c2, eps)
			AdamStep(p[:n], g, m, v, AdamCoef{B1: b1, OB1: 1 - b1, B2: b2, OB2: 1 - b2, LR: lr, C1: c1, C2: c2, Eps: eps})
			sameFloats(t, "AdamStep p", n, p, wantP, false)
			sameFloats(t, "AdamStep m", n, m, wantM, false)
			sameFloats(t, "AdamStep v", n, v, wantV, false)
		}
	}

	a, b, c, e := elementwiseValues(rng, 67), elementwiseValues(rng, 67), elementwiseValues(rng, 67), elementwiseValues(rng, 67)
	coef := AdamCoef{B1: 0.9, OB1: 0.1, B2: 0.999, OB2: 0.001, LR: 1e-3, C1: 0.1, C2: 0.001, Eps: 1e-8}
	for _, op := range []struct {
		name string
		f    func()
	}{
		{"ReLU", func() { ReLU(a) }},
		{"ReLUGrad", func() { ReLUGrad(a, b) }},
		{"AddTo", func() { AddTo(a, b) }},
		{"Blend", func() { Blend(a, b, 0.01) }},
		{"AdamStep", func() { AdamStep(a, b, c, e, coef) }},
	} {
		if n := testing.AllocsPerRun(10, op.f); n != 0 {
			t.Errorf("%s allocates %v times per call", op.name, n)
		}
	}
}
