package nn

import (
	"math"
	"math/rand"
	"testing"

	"distredge/internal/tensor"
)

func TestForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP([]int{4, 8, 3}, ReLU, Tanh, rng)
	x := tensor.New(5, 4)
	x.Randomize(rng, 1)
	out := m.ForwardWS(NewWorkspace(m, 5), x)
	if out.R != 5 || out.C != 3 {
		t.Fatalf("output shape %dx%d, want 5x3", out.R, out.C)
	}
	for _, v := range out.A {
		if v < -1 || v > 1 {
			t.Fatalf("tanh output %g out of [-1,1]", v)
		}
	}
}

// numericalGrad estimates dLoss/dparam by central differences, forward
// passes running in a workspace of their own.
func numericalGrad(m *MLP, x *tensor.Mat, target []float64, param *float64) float64 {
	ws := NewWorkspace(m, x.R)
	loss := func() float64 {
		out := m.ForwardWS(ws, x)
		var s float64
		for i, v := range out.A {
			d := v - target[i]
			s += d * d
		}
		return s
	}
	const h = 1e-6
	orig := *param
	*param = orig + h
	lp := loss()
	*param = orig - h
	lm := loss()
	*param = orig
	return (lp - lm) / (2 * h)
}

func TestBackwardMatchesNumericalGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP([]int{3, 5, 4, 2}, ReLU, Tanh, rng)
	// Perturb biases away from zero so no ReLU pre-activation sits exactly
	// on the kink (where the subgradient makes numerical comparison moot).
	for l := range m.B {
		for i := range m.B[l] {
			m.B[l][i] = 0.1 * rng.NormFloat64()
		}
	}
	x := tensor.New(4, 3)
	x.Randomize(rng, 1)
	target := make([]float64, 4*2)
	for i := range target {
		target[i] = rng.NormFloat64() * 0.3
	}
	ws := NewWorkspace(m, 4)
	out := m.ForwardWS(ws, x)
	gradOut := tensor.New(4, 2)
	for i := range gradOut.A {
		gradOut.A[i] = 2 * (out.A[i] - target[i])
	}
	grads := m.BackwardWS(ws, gradOut)

	check := func(name string, analytic float64, param *float64) {
		num := numericalGrad(m, x, target, param)
		if math.Abs(num-analytic) > 1e-4*(1+math.Abs(num)) {
			t.Errorf("%s: analytic %g vs numerical %g", name, analytic, num)
		}
	}
	for l := range m.W {
		check("W0", grads.W[l].A[0], &m.W[l].A[0])
		last := len(m.W[l].A) - 1
		check("Wlast", grads.W[l].A[last], &m.W[l].A[last])
		check("B0", grads.B[l][0], &m.B[l][0])
	}
}

func TestBackwardGradInput(t *testing.T) {
	// dLoss/dInput must also match numerical differentiation.
	rng := rand.New(rand.NewSource(4))
	m := NewMLP([]int{3, 6, 1}, ReLU, Identity, rng)
	x := tensor.New(1, 3)
	x.Randomize(rng, 1)
	ws := NewWorkspace(m, 1)
	m.ForwardWS(ws, x)
	gradOut := tensor.New(1, 1)
	gradOut.Set(0, 0, 1) // dL/dout = 1, so gradIn = dout/dx
	gradIn := m.BackwardInputWS(ws, gradOut, 0, 3).Clone()
	const h = 1e-6
	for j := 0; j < 3; j++ {
		orig := x.A[j]
		x.A[j] = orig + h
		lp := m.ForwardWS(ws, x).At(0, 0)
		x.A[j] = orig - h
		lm := m.ForwardWS(ws, x).At(0, 0)
		x.A[j] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-gradIn.At(0, j)) > 1e-5*(1+math.Abs(num)) {
			t.Errorf("input grad %d: analytic %g vs numerical %g", j, gradIn.At(0, j), num)
		}
	}
}

// TestBackwardInputColumns holds a column range of the input gradient to
// the same columns of the whole one, bit for bit, whatever range the
// workspace served before, and rejects a range outside the input.
func TestBackwardInputColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := NewMLP([]int{5, 7, 3, 1}, ReLU, Identity, rng)
	x, gradOut := tensor.New(4, 5), tensor.New(4, 1)
	x.Randomize(rng, 1)
	gradOut.Randomize(rng, 1)
	ws := NewWorkspace(m, 4)
	m.ForwardWS(ws, x)
	full := m.BackwardInputWS(ws, gradOut, 0, 5).Clone()
	for _, r := range [][2]int{{2, 4}, {3, 5}, {0, 5}, {1, 1}, {0, 1}} {
		lo, hi := r[0], r[1]
		got := m.BackwardInputWS(ws, gradOut, lo, hi)
		if got.R != 4 || got.C != hi-lo {
			t.Fatalf("[%d,%d): %dx%d gradient", lo, hi, got.R, got.C)
		}
		for i := 0; i < 4; i++ {
			for j := lo; j < hi; j++ {
				if math.Float64bits(got.At(i, j-lo)) != math.Float64bits(full.At(i, j)) {
					t.Fatalf("[%d,%d): element (%d,%d) = %v, whole gradient %v", lo, hi, i, j, got.At(i, j-lo), full.At(i, j))
				}
			}
		}
	}
	for _, r := range [][2]int{{-1, 2}, {2, 6}, {3, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("[%d,%d): expected a panic", r[0], r[1])
				}
			}()
			m.BackwardInputWS(ws, gradOut, r[0], r[1])
		}()
	}
}

func TestAdamLearnsRegression(t *testing.T) {
	// y = sin(2x) on [-1,1]; a small MLP with Adam must fit it far better
	// than the initial network.
	rng := rand.New(rand.NewSource(5))
	m := NewMLP([]int{1, 32, 32, 1}, ReLU, Identity, rng)
	opt := NewAdam(m, 1e-2)
	n := 64
	x := tensor.New(n, 1)
	target := make([]float64, n)
	for i := 0; i < n; i++ {
		v := 2*rng.Float64() - 1
		x.Set(i, 0, v)
		target[i] = math.Sin(2 * v)
	}
	ws := NewWorkspace(m, n)
	loss := func() float64 {
		out := m.ForwardWS(ws, x)
		var s float64
		for i := range target {
			d := out.At(i, 0) - target[i]
			s += d * d
		}
		return s / float64(n)
	}
	initial := loss()
	g := tensor.New(n, 1)
	for it := 0; it < 500; it++ {
		out := m.ForwardWS(ws, x)
		for i := range target {
			g.Set(i, 0, 2*(out.At(i, 0)-target[i])/float64(n))
		}
		opt.Step(m, m.BackwardWS(ws, g))
	}
	final := loss()
	if final > initial/10 {
		t.Errorf("Adam failed to learn: initial %g, final %g", initial, final)
	}
	if final > 0.05 {
		t.Errorf("final loss %g too high", final)
	}
}

func TestSoftUpdateConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	src := NewMLP([]int{2, 4, 1}, ReLU, Identity, rng)
	dst := NewMLP([]int{2, 4, 1}, ReLU, Identity, rng)
	for i := 0; i < 2000; i++ {
		SoftUpdate(dst, src, 0.01)
	}
	for l := range src.W {
		for i := range src.W[l].A {
			if math.Abs(dst.W[l].A[i]-src.W[l].A[i]) > 1e-6 {
				t.Fatal("soft update did not converge to source")
			}
		}
	}
}

func TestSoftUpdateTauOne(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := NewMLP([]int{2, 3, 1}, ReLU, Identity, rng)
	dst := NewMLP([]int{2, 3, 1}, ReLU, Identity, rng)
	SoftUpdate(dst, src, 1)
	for l := range src.W {
		for i := range src.W[l].A {
			if dst.W[l].A[i] != src.W[l].A[i] {
				t.Fatal("tau=1 must copy exactly")
			}
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := NewMLP([]int{2, 3, 1}, ReLU, Identity, rng)
	c := m.Clone()
	c.W[0].A[0] = 99
	c.B[0][0] = 99
	if m.W[0].A[0] == 99 || m.B[0][0] == 99 {
		t.Error("Clone must deep-copy parameters")
	}
}

func TestActivations(t *testing.T) {
	negZero := math.Copysign(0, -1)
	z := tensor.FromSlice(1, 5, []float64{-1, negZero, 0, 2, 0.5})
	ReLU.apply(z)
	for i, want := range []float64{0, 0, 0, 2, 0.5} {
		if z.A[i] != want || math.Signbit(z.A[i]) {
			t.Errorf("ReLU(%d) = %v, want %v", i, z.A[i], want)
		}
	}
	delta := tensor.FromSlice(1, 5, []float64{3, 3, 3, 3, 3})
	applyDeriv(ReLU, delta, z)
	for i, want := range []float64{0, 0, 0, 3, 3} {
		if delta.A[i] != want {
			t.Errorf("ReLU derivative at output %v: delta %v, want %v", z.A[i], delta.A[i], want)
		}
	}
	y := math.Tanh(0.7)
	delta = tensor.FromSlice(1, 1, []float64{2})
	applyDeriv(Tanh, delta, tensor.FromSlice(1, 1, []float64{y}))
	if math.Abs(delta.A[0]-2*(1-y*y)) > 1e-15 {
		t.Error("Tanh derivative wrong")
	}
	delta = tensor.FromSlice(1, 1, []float64{5})
	applyDeriv(Identity, delta, tensor.FromSlice(1, 1, []float64{-7}))
	if delta.A[0] != 5 {
		t.Error("Identity derivative wrong")
	}
}

func TestNewMLPPanicsOnBadSizes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for 1-element sizes")
		}
	}()
	NewMLP([]int{3}, ReLU, Identity, rand.New(rand.NewSource(1)))
}

func TestForwardPanicsOnBadWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP([]int{3, 2}, ReLU, Identity, rng)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for wrong input width")
		}
	}()
	m.ForwardWS(NewWorkspace(m, 1), tensor.New(1, 5))
}
