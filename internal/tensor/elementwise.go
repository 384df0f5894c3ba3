package tensor

import "math"

// The elementwise operations of a DDPG update. Each runs its full 4-lane
// groups through an AVX2 kernel where useAVX2 says there is one and the rest
// (all of it elsewhere) through the scalar loop below it. The kernels keep
// every element's scalar operations in the same order, with a separate
// multiply and add and no fused multiply-add, and VDIVPD, VSQRTPD and the
// compare-and-mask round or select exactly as DIVSD, SQRTSD and the scalar
// branch do: both paths give the same bits.

// ReLU replaces every element x with max(x, 0) in place: negatives and −0
// become +0, NaN stays NaN.
func ReLU(x []float64) {
	i := 0
	if useAVX2 && len(x) >= 4 {
		i = len(x) &^ 3
		relu4(&x[0], i)
	}
	for j, v := range x[i:] {
		x[i+j] = max(v, 0) // branchless; negatives clamp, zeros stay zero
	}
}

// ReLUGrad zeroes d wherever y <= 0: the ReLU derivative expressed through
// the activated outputs y, applied to the backpropagated delta d in place.
// A NaN in y keeps its d. y must be at least as long as d.
func ReLUGrad(d, y []float64) {
	y = y[:len(d)]
	i := 0
	if useAVX2 && len(d) >= 4 {
		i = len(d) &^ 3
		reluGrad4(&d[0], &y[0], i)
	}
	for j, v := range y[i:] {
		if v <= 0 {
			d[i+j] = 0
		}
	}
}

// AddTo adds src to dst element-wise in place: dst[i] += src[i]. src must be
// at least as long as dst.
func AddTo(dst, src []float64) {
	src = src[:len(dst)]
	i := 0
	if useAVX2 && len(dst) >= 4 {
		i = len(dst) &^ 3
		add4(&dst[0], &src[0], i)
	}
	for j, v := range src[i:] {
		dst[i+j] += v
	}
}

// Blend moves dst toward src in place: dst[i] = t·src[i] + (1−t)·dst[i]
// (the soft target update θ' ← τθ + (1−τ)θ'). src must be at least as long
// as dst.
func Blend(dst, src []float64, t float64) {
	src = src[:len(dst)]
	omt := 1 - t
	i := 0
	if useAVX2 && len(dst) >= 4 {
		i = len(dst) &^ 3
		blend4(&dst[0], &src[0], i, t, omt)
	}
	for j, v := range src[i:] {
		dst[i+j] = float64(t*v) + float64(omt*dst[i+j])
	}
}

// AdamCoef holds the scalars of one Adam step: the moment decay rates B1
// and B2 with their complements OB1 = 1−B1 and OB2 = 1−B2, the learning rate
// LR, the bias corrections C1 = 1−B1^t and C2 = 1−B2^t, and Eps.
type AdamCoef struct {
	B1, OB1, B2, OB2, LR, C1, C2, Eps float64
}

// AdamStep applies one Adam update to the parameters p in place, with
// gradients g and the first and second moments m and v, which it updates
// too:
//
//	m ← B1·m + OB1·g
//	v ← B2·v + (OB2·g)·g
//	p ← p − LR·(m/C1) / (√(v/C2) + Eps)
//
// g, m and v must be at least as long as p.
func AdamStep(p, g, m, v []float64, c AdamCoef) {
	g, m, v = g[:len(p)], m[:len(p)], v[:len(p)]
	i := 0
	if useAVX2 && len(p) >= 4 {
		i = len(p) &^ 3
		adam4(&p[0], &g[0], &m[0], &v[0], i, &c)
	}
	for ; i < len(p); i++ {
		gv := g[i]
		m[i] = float64(c.B1*m[i]) + float64(c.OB1*gv)
		v[i] = float64(c.B2*v[i]) + float64(c.OB2*gv*gv)
		p[i] -= c.LR * (m[i] / c.C1) / (math.Sqrt(v[i]/c.C2) + c.Eps)
	}
}
