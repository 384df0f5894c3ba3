// Package nn implements the multilayer perceptrons DistrEdge's DDPG agent
// uses for its actor and critic networks (Section V: actor {400,200,100},
// critic {400,200,100,100}), with minibatch forward/backward passes and the
// Adam optimiser — stdlib only.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"distredge/internal/tensor"
)

// Activation selects a layer nonlinearity.
type Activation int

// Supported activations.
const (
	Identity Activation = iota
	ReLU
	Tanh
)

func (a Activation) apply(m *tensor.Mat) {
	switch a {
	case ReLU:
		tensor.ReLU(m.A)
	case Tanh:
		for i, x := range m.A {
			m.A[i] = math.Tanh(x)
		}
	}
}

// applyDeriv multiplies delta element-wise by act'(z) expressed through the
// activated outputs, in place: ReLU's derivative is 1 where the output is
// positive and 0 elsewhere, Tanh's is 1−y², Identity's is 1. The
// multiplications by exactly 1 are skipped (x*1 == x bit-for-bit).
func applyDeriv(act Activation, delta, out *tensor.Mat) {
	switch act {
	case ReLU:
		tensor.ReLUGrad(delta.A, out.A)
	case Tanh:
		for i, y := range out.A {
			delta.A[i] *= 1 - float64(y*y)
		}
	}
}

// MLP is a fully-connected network: Sizes[0] inputs, hidden layers with
// HiddenAct, and Sizes[len-1] outputs with OutAct.
type MLP struct {
	Sizes     []int
	W         []*tensor.Mat // W[l] is Sizes[l] x Sizes[l+1]
	B         [][]float64
	HiddenAct Activation
	OutAct    Activation
}

// NewMLP builds an MLP with Xavier-uniform initial weights.
func NewMLP(sizes []int, hidden, out Activation, rng *rand.Rand) *MLP {
	m := alloc(sizes, hidden, out)
	m.Init(rng)
	return m
}

// alloc builds an MLP of the given shape with all-zero parameters.
func alloc(sizes []int, hidden, out Activation) *MLP {
	if len(sizes) < 2 {
		panic(fmt.Sprintf("nn: MLP needs >=2 sizes, got %v", sizes))
	}
	m := &MLP{Sizes: append([]int(nil), sizes...), HiddenAct: hidden, OutAct: out}
	for l := 0; l+1 < len(sizes); l++ {
		m.W = append(m.W, tensor.New(sizes[l], sizes[l+1]))
		m.B = append(m.B, make([]float64, sizes[l+1]))
	}
	return m
}

// Init redraws the network's parameters in place: Xavier-uniform weights,
// layer by layer, and zero biases. It draws exactly the rng numbers NewMLP
// draws, so a re-initialised network equals a new one from the same rng.
func (m *MLP) Init(rng *rand.Rand) {
	for l, w := range m.W {
		scale := math.Sqrt(6.0 / float64(m.Sizes[l]+m.Sizes[l+1]))
		w.Randomize(rng, scale)
		clear(m.B[l])
	}
}

// Clone returns a deep copy of the network.
func (m *MLP) Clone() *MLP {
	c := alloc(m.Sizes, m.HiddenAct, m.OutAct)
	c.CopyFrom(m)
	return c
}

// CopyFrom overwrites the network's parameters with src's, which must have
// the same Sizes.
func (m *MLP) CopyFrom(src *MLP) {
	for l := range m.W {
		copy(m.W[l].A, src.W[l].A)
		copy(m.B[l], src.B[l])
	}
}

// Workspace holds every buffer a fixed-batch forward/backward pass through
// one network shape needs: per-layer activations, per-layer deltas and the
// parameter gradients. Reusing a workspace makes training steps
// allocation-free. A workspace serves any MLP with the same Sizes (e.g. a
// net and its target copy), one pass at a time.
type Workspace struct {
	batch int
	acts  []*tensor.Mat // acts[0] = input ref, acts[l+1] = output of layer l
	delta []*tensor.Mat // delta[l] = batch × Sizes[l+1] backprop scratch
	wt    []*tensor.Mat // wt[l] = W[l]ᵀ scratch for delta propagation
	gin   *tensor.Mat   // batch × Sizes[0] storage for the input gradient
	grads *Grads
}

// NewWorkspace builds a workspace for minibatches of the given row count
// through networks shaped like m.
func NewWorkspace(m *MLP, batch int) *Workspace {
	ws := &Workspace{
		batch: batch,
		acts:  make([]*tensor.Mat, len(m.W)+1),
		delta: make([]*tensor.Mat, len(m.W)),
		wt:    make([]*tensor.Mat, len(m.W)),
		gin:   tensor.New(batch, m.Sizes[0]),
		grads: &Grads{W: make([]*tensor.Mat, len(m.W)), B: make([][]float64, len(m.W))},
	}
	for l := range m.W {
		ws.acts[l+1] = tensor.New(batch, m.Sizes[l+1])
		ws.delta[l] = tensor.New(batch, m.Sizes[l+1])
		ws.wt[l] = tensor.New(m.Sizes[l+1], m.Sizes[l])
		ws.grads.W[l] = tensor.New(m.Sizes[l], m.Sizes[l+1])
		ws.grads.B[l] = make([]float64, m.Sizes[l+1])
	}
	return ws
}

// ForwardWS runs a minibatch through the network into the workspace's
// activation buffers, allocating nothing. The returned output and the
// cached activations are valid until the workspace's next forward pass.
func (m *MLP) ForwardWS(ws *Workspace, x *tensor.Mat) *tensor.Mat {
	if x.C != m.Sizes[0] {
		panic(fmt.Sprintf("nn: input width %d, want %d", x.C, m.Sizes[0]))
	}
	if x.R != ws.batch {
		panic(fmt.Sprintf("nn: batch %d, workspace built for %d", x.R, ws.batch))
	}
	ws.acts[0] = x
	cur := x
	for l := range m.W {
		z := ws.acts[l+1]
		tensor.MulABInto(z, cur, m.W[l])
		z.AddRowVec(m.B[l])
		m.act(l).apply(z)
		cur = z
	}
	return cur
}

// act returns the activation of layer l.
func (m *MLP) act(l int) Activation {
	if l == len(m.W)-1 {
		return m.OutAct
	}
	return m.HiddenAct
}

// Grads holds parameter gradients matching an MLP's weights and biases.
type Grads struct {
	W []*tensor.Mat
	B [][]float64
}

// BackwardWS backpropagates gradOut through the activations cached by the
// workspace's last ForwardWS call and returns the parameter gradients,
// allocating nothing. It does not compute the input gradient — use
// BackwardInputWS when only that is needed (DDPG's dQ/da).
// The returned gradients alias workspace buffers and are valid until the
// next backward call on this workspace.
func (m *MLP) BackwardWS(ws *Workspace, gradOut *tensor.Mat) *Grads {
	m.backward(ws, gradOut, true)
	return ws.grads
}

// BackwardInputWS backpropagates gradOut through the workspace's cached
// activations down to the network *input* and returns dL/dInput for the
// input columns [lo, hi), batch × (hi-lo), skipping the parameter
// gradients entirely — the critic-as-differentiable-oracle pass of DDPG's
// actor update, which reads only the action columns. Only W[0]'s rows lo
// to hi are transposed and multiplied; each element sums the same terms in
// the same order as the full gradient's. The result aliases the workspace.
func (m *MLP) BackwardInputWS(ws *Workspace, gradOut *tensor.Mat, lo, hi int) *tensor.Mat {
	if lo < 0 || hi > m.Sizes[0] || lo > hi {
		panic(fmt.Sprintf("nn: input columns [%d,%d) of %d", lo, hi, m.Sizes[0]))
	}
	delta := m.backward(ws, gradOut, false)
	w := m.W[0]
	rows := tensor.Mat{R: hi - lo, C: w.C, A: w.A[lo*w.C : hi*w.C]}
	wt := reshape(ws.wt[0], w.C, hi-lo)
	tensor.TransposeInto(wt, &rows)
	return tensor.MulABInto(reshape(ws.gin, ws.batch, hi-lo), delta, wt)
}

// reshape makes m an r×c matrix over the start of its own storage, which
// must hold r·c elements: BackwardInputWS sizes its two buffers, built for
// the whole input, to the columns asked for.
func reshape(m *tensor.Mat, r, c int) *tensor.Mat {
	m.R, m.C, m.A = r, c, m.A[:r*c]
	return m
}

// backward propagates gradOut down to the first layer's delta, which it
// returns, and fills the parameter gradients on the way when params is set.
// A delta moves down a layer as delta·Wᵀ through an explicit transpose: the
// streaming MulAB kernel then reads rows sequentially (same sums, same
// order).
func (m *MLP) backward(ws *Workspace, gradOut *tensor.Mat, params bool) *tensor.Mat {
	last := len(m.W) - 1
	delta := ws.delta[last]
	if len(gradOut.A) != len(delta.A) {
		panic(fmt.Sprintf("nn: gradOut %dx%d, workspace expects %dx%d", gradOut.R, gradOut.C, delta.R, delta.C))
	}
	copy(delta.A, gradOut.A)
	for l := last; ; l-- {
		applyDeriv(m.act(l), delta, ws.acts[l+1])
		if params {
			tensor.MulATBInto(ws.grads.W[l], ws.acts[l], delta)
			delta.SumRowsInto(ws.grads.B[l])
		}
		if l == 0 {
			return delta
		}
		tensor.TransposeInto(ws.wt[l], m.W[l])
		tensor.MulABInto(ws.delta[l-1], delta, ws.wt[l])
		delta = ws.delta[l-1]
	}
}

// SoftUpdate moves target parameters toward src: θ' ← τθ + (1-τ)θ'.
func SoftUpdate(target, src *MLP, tau float64) {
	for l := range target.W {
		tensor.Blend(target.W[l].A, src.W[l].A, tau)
		tensor.Blend(target.B[l], src.B[l], tau)
	}
}

// Adam is the Adam optimiser bound to one MLP's parameter shapes.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	mW, vW                []*tensor.Mat
	mB, vB                [][]float64
}

// NewAdam returns an Adam optimiser for the given network.
func NewAdam(m *MLP, lr float64) *Adam {
	a := &Adam{}
	for l := range m.W {
		a.mW = append(a.mW, tensor.New(m.W[l].R, m.W[l].C))
		a.vW = append(a.vW, tensor.New(m.W[l].R, m.W[l].C))
		a.mB = append(a.mB, make([]float64, len(m.B[l])))
		a.vB = append(a.vB, make([]float64, len(m.B[l])))
	}
	a.Reset(lr)
	return a
}

// Reset returns the optimiser to its initial state at learning rate lr:
// default decay rates, zero moments and step count, as NewAdam leaves it.
func (a *Adam) Reset(lr float64) {
	a.LR, a.Beta1, a.Beta2, a.Eps = lr, 0.9, 0.999, 1e-8
	a.t = 0
	for l := range a.mW {
		clear(a.mW[l].A)
		clear(a.vW[l].A)
		clear(a.mB[l])
		clear(a.vB[l])
	}
}

// Step applies one Adam update of the gradients to the network.
func (a *Adam) Step(m *MLP, g *Grads) {
	a.t++
	c := tensor.AdamCoef{
		B1: a.Beta1, OB1: 1 - a.Beta1,
		B2: a.Beta2, OB2: 1 - a.Beta2,
		LR:  a.LR,
		C1:  1 - math.Pow(a.Beta1, float64(a.t)),
		C2:  1 - math.Pow(a.Beta2, float64(a.t)),
		Eps: a.Eps,
	}
	for l := range m.W {
		tensor.AdamStep(m.W[l].A, g.W[l].A, a.mW[l].A, a.vW[l].A, c)
		tensor.AdamStep(m.B[l], g.B[l], a.mB[l], a.vB[l], c)
	}
}
