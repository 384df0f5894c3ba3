// Package rl implements the Deep Deterministic Policy Gradient (DDPG)
// algorithm (Lillicrap et al., cited as [32] by the paper) used by
// DistrEdge's OSDS module: an actor-critic pair with target networks, a
// replay buffer, soft target updates and Gaussian exploration noise, for
// continuous action spaces.
package rl

import (
	"fmt"
	"math/rand"

	"distredge/internal/nn"
	"distredge/internal/tensor"
)

// Transition is one (s, a, r, s', done) tuple (Alg. 2 line 18 stores the
// raw actor output ã, before the action mapping of Eq. 9).
type Transition struct {
	State     []float64
	Action    []float64
	Reward    float64
	NextState []float64
	Done      bool
}

// Replay is a bounded FIFO replay buffer with uniform sampling. Add copies
// every transition into flat storage the buffer owns, so a caller may reuse
// the slices it passed (the OSDS trainer refills the same state and action
// buffers every episode). Storage grows on demand up to the capacity: short
// training runs (tests, benchmarks, finetuning bursts) never pay for the
// full paper-scale buffer, which at the default 100k capacity would be
// ~12 MB of zeroed memory per agent.
type Replay struct {
	cap    int
	ds, da int       // state and action widths, fixed by the first Add
	rows   []float64 // per transition: state ‖ action ‖ next state
	reward []float64
	done   []bool
	next   int // overwrite cursor, meaningful once Len() == cap
	rng    *rand.Rand
}

// NewReplay returns a replay buffer holding up to capacity transitions.
func NewReplay(capacity int, seed int64) *Replay {
	if capacity < 1 {
		capacity = 1
	}
	return &Replay{cap: capacity, rng: rand.New(rand.NewSource(seed))}
}

// Reset empties the buffer and reseeds its sampler, keeping the storage it
// has grown. Afterwards it behaves exactly as a NewReplay of its capacity
// and seed would: (*rand.Rand).Seed leaves the source as rand.NewSource
// does.
func (r *Replay) Reset(seed int64) {
	r.rows, r.reward, r.done = r.rows[:0], r.reward[:0], r.done[:0]
	r.ds, r.da, r.next = 0, 0, 0
	r.rng.Seed(seed)
}

// Add stores a copy of the transition, evicting the oldest when full. Every
// transition must have the state and action widths of the first.
func (r *Replay) Add(t Transition) {
	if len(r.reward) == 0 {
		r.ds, r.da = len(t.State), len(t.Action)
	}
	if len(t.State) != r.ds || len(t.NextState) != r.ds || len(t.Action) != r.da {
		panic(fmt.Sprintf("rl: transition widths %d/%d/%d, want %d/%d/%d",
			len(t.State), len(t.Action), len(t.NextState), r.ds, r.da, r.ds))
	}
	if len(r.reward) < r.cap {
		r.rows = append(append(append(r.rows, t.State...), t.Action...), t.NextState...)
		r.reward = append(r.reward, t.Reward)
		r.done = append(r.done, t.Done)
		return
	}
	k := r.next
	row := r.rows[k*(2*r.ds+r.da):]
	copy(row, t.State)
	copy(row[r.ds:], t.Action)
	copy(row[r.ds+r.da:], t.NextState)
	r.reward[k], r.done[k] = t.Reward, t.Done
	r.next++
	if r.next == r.cap {
		r.next = 0
	}
}

// Len returns the number of stored transitions.
func (r *Replay) Len() int { return len(r.reward) }

// SampleInto fills out with uniform draws (with replacement), reusing the
// caller's buffer. The drawn transitions' slices are views of the buffer's
// storage, valid until the next Add.
func (r *Replay) SampleInto(out []Transition) []Transition {
	m := r.Len()
	ds, da := r.ds, r.da
	for i := range out {
		k := r.rng.Intn(m)
		w := 2*ds + da
		row := r.rows[k*w : (k+1)*w : (k+1)*w]
		out[i] = Transition{
			State:     row[:ds:ds],
			Action:    row[ds : ds+da : ds+da],
			Reward:    r.reward[k],
			NextState: row[ds+da:],
			Done:      r.done[k],
		}
	}
	return out
}

// Config sets the DDPG hyper-parameters. The defaults mirror the paper's
// Section V: γ=0.99, actor lr 1e-4, critic lr 1e-3, batch 64.
type Config struct {
	StateDim  int
	ActionDim int
	Hidden    []int // actor hidden sizes; the critic gets Hidden + [last]
	ActorLR   float64
	CriticLR  float64
	Gamma     float64
	Tau       float64
	BufferCap int
	Seed      int64
}

// withDefaults fills zero fields with the paper's values.
func (c Config) withDefaults() Config {
	if len(c.Hidden) == 0 {
		c.Hidden = []int{400, 200, 100}
	}
	if c.ActorLR == 0 {
		c.ActorLR = 1e-4
	}
	if c.CriticLR == 0 {
		c.CriticLR = 1e-3
	}
	if c.Gamma == 0 {
		c.Gamma = 0.99
	}
	if c.Tau == 0 {
		c.Tau = 0.01
	}
	if c.BufferCap == 0 {
		c.BufferCap = 100_000
	}
	return c
}

// Agent is a DDPG agent. The actor maps states to actions in [-1,1]^A
// (tanh output, Eq. 9's [A,B] bounds); the critic maps (state, action) to a
// scalar Q value.
type Agent struct {
	Cfg     Config
	Actor   *nn.MLP
	Critic  *nn.MLP
	ActorT  *nn.MLP
	CriticT *nn.MLP

	actorOpt  *nn.Adam
	criticOpt *nn.Adam
	Buf       *Replay
	rng       *rand.Rand

	scr  *updateScratch // batch-sized buffers reused across Update calls
	act1 *actScratch    // 1-row buffers reused across Action calls
	home *shapePool     // where Release files the agent
}

// updateScratch holds every buffer one Update step needs, sized for a fixed
// batch. Reuse makes Update allocation-free without changing any float
// operation: each buffer replaces exactly one former allocation.
type updateScratch struct {
	batch    int
	ts       []Transition
	S, A, S2 *tensor.Mat
	sa       *tensor.Mat // state‖action input, reused for all three HStacks
	y        []float64
	gradQ    *tensor.Mat
	ones     *tensor.Mat
	actorWS  *nn.Workspace // serves Actor and ActorT (same shape)
	criticWS *nn.Workspace // serves Critic and CriticT
}

// actScratch is the 1-row forward-pass workspace behind Action.
type actScratch struct {
	in *tensor.Mat
	ws *nn.Workspace
}

// scratch returns batch-sized update buffers, (re)building them when the
// batch size changes.
func (a *Agent) scratch(batch int) *updateScratch {
	if a.scr != nil && a.scr.batch == batch {
		return a.scr
	}
	ds, da := a.Cfg.StateDim, a.Cfg.ActionDim
	a.scr = &updateScratch{
		batch:    batch,
		ts:       make([]Transition, batch),
		S:        tensor.New(batch, ds),
		A:        tensor.New(batch, da),
		S2:       tensor.New(batch, ds),
		sa:       tensor.New(batch, ds+da),
		y:        make([]float64, batch),
		gradQ:    tensor.New(batch, 1),
		ones:     tensor.New(batch, 1),
		actorWS:  nn.NewWorkspace(a.Actor, batch),
		criticWS: nn.NewWorkspace(a.Critic, batch),
	}
	a.scr.fillOnes()
	return a.scr
}

// fillOnes writes the actor step's output gradient: -1/batch per row
// (maximise Q ⇒ descend -Q). It is the one scratch buffer an update reads
// before writing.
func (s *updateScratch) fillOnes() {
	for i := range s.ones.A {
		s.ones.A[i] = -1.0 / float64(s.batch)
	}
}

// New creates a DDPG agent (Alg. 2 lines 1-3: random nets, targets copied,
// empty replay buffer). When an agent of the same shape has been released
// (see Release), New re-initialises that one in place instead of allocating;
// either way the agent is the one the seed defines.
func New(cfg Config) (*Agent, error) {
	cfg = cfg.withDefaults()
	if cfg.StateDim < 1 || cfg.ActionDim < 1 {
		return nil, fmt.Errorf("rl: need positive state/action dims, got %d/%d", cfg.StateDim, cfg.ActionDim)
	}
	home := agents.pool(cfg)
	a, _ := home.agents.Get().(*Agent)
	if a == nil {
		a = alloc(cfg)
		a.home = home
	}
	a.init(cfg)
	return a, nil
}

// alloc builds an agent of cfg's shape; init then gives it its numbers.
func alloc(cfg Config) *Agent {
	rng := rand.New(rand.NewSource(cfg.Seed))
	actorSizes := append(append([]int{cfg.StateDim}, cfg.Hidden...), cfg.ActionDim)
	criticHidden := append(append([]int(nil), cfg.Hidden...), cfg.Hidden[len(cfg.Hidden)-1])
	criticSizes := append(append([]int{cfg.StateDim + cfg.ActionDim}, criticHidden...), 1)
	a := &Agent{
		Actor:  nn.NewMLP(actorSizes, nn.ReLU, nn.Tanh, rng),
		Critic: nn.NewMLP(criticSizes, nn.ReLU, nn.Identity, rng),
		Buf:    NewReplay(cfg.BufferCap, cfg.Seed+1),
		rng:    rng,
	}
	a.ActorT = a.Actor.Clone()
	a.CriticT = a.Critic.Clone()
	a.actorOpt = nn.NewAdam(a.Actor, cfg.ActorLR)
	a.criticOpt = nn.NewAdam(a.Critic, cfg.CriticLR)
	return a
}

// init (re)initialises every number the agent owns from cfg, as a new
// agent starts: the rng reseeded, then the actor's and the critic's
// weights drawn from it in that order, the targets copied, the Adam
// moments and step counts zeroed and the replay buffer emptied and
// reseeded. The update scratch is kept; its one pre-filled buffer is
// filled again.
func (a *Agent) init(cfg Config) {
	a.Cfg = cfg
	a.rng.Seed(cfg.Seed)
	a.Actor.Init(a.rng)
	a.Critic.Init(a.rng)
	a.ActorT.CopyFrom(a.Actor)
	a.CriticT.CopyFrom(a.Critic)
	a.actorOpt.Reset(cfg.ActorLR)
	a.criticOpt.Reset(cfg.CriticLR)
	a.Buf.Reset(cfg.Seed + 1)
	if a.scr != nil {
		a.scr.fillOnes()
	}
}

// Action writes the deterministic policy action μ(s) ∈ [-1,1]^A into dst,
// which must have length ActionDim, and returns it.
func (a *Agent) Action(dst, state []float64) []float64 {
	if len(state) != a.Cfg.StateDim {
		panic(fmt.Sprintf("rl: state dim %d, want %d", len(state), a.Cfg.StateDim))
	}
	if len(dst) != a.Cfg.ActionDim {
		panic(fmt.Sprintf("rl: action buffer of %d, want %d", len(dst), a.Cfg.ActionDim))
	}
	if a.act1 == nil {
		a.act1 = &actScratch{
			in: tensor.New(1, a.Cfg.StateDim),
			ws: nn.NewWorkspace(a.Actor, 1),
		}
	}
	copy(a.act1.in.A, state)
	out := a.Actor.ForwardWS(a.act1.ws, a.act1.in)
	copy(dst, out.Row(0))
	return dst
}

// NoisyAction writes μ(s) + N(0, sigma²) clipped to [-1,1] into dst (Alg. 2
// line 11) and returns it.
func (a *Agent) NoisyAction(dst, state []float64, sigma float64) []float64 {
	act := a.Action(dst, state)
	for i := range act {
		act[i] += float64(sigma * a.rng.NormFloat64())
		if act[i] > 1 {
			act[i] = 1
		}
		if act[i] < -1 {
			act[i] = -1
		}
	}
	return act
}

// Update samples a minibatch and performs one critic and one actor gradient
// step plus soft target updates (Alg. 2 lines 19-22). It returns the critic
// loss, or 0 if the buffer has fewer than batch transitions. All
// intermediate buffers live in a per-agent scratch workspace, so steady-
// state updates allocate nothing.
func (a *Agent) Update(batch int) float64 {
	if a.Buf.Len() < batch {
		return 0
	}
	scr := a.scratch(batch)
	ts := a.Buf.SampleInto(scr.ts)
	n := len(ts)
	ds, da := a.Cfg.StateDim, a.Cfg.ActionDim
	S, A, S2 := scr.S, scr.A, scr.S2
	for i, t := range ts {
		copy(S.Row(i), t.State)
		copy(A.Row(i), t.Action)
		copy(S2.Row(i), t.NextState)
	}

	// Targets: y = r + γ·Q'(s', μ'(s')) for non-terminal transitions.
	a2 := a.ActorT.ForwardWS(scr.actorWS, S2)
	q2 := a.CriticT.ForwardWS(scr.criticWS, tensor.HStackInto(scr.sa, S2, a2))
	y := scr.y
	for i, t := range ts {
		y[i] = t.Reward
		if !t.Done {
			y[i] += float64(a.Cfg.Gamma * q2.At(i, 0))
		}
	}

	// Critic step: minimise (1/n)Σ (Q(s,a) - y)².
	q := a.Critic.ForwardWS(scr.criticWS, tensor.HStackInto(scr.sa, S, A))
	gradQ := scr.gradQ
	var loss float64
	for i := 0; i < n; i++ {
		d := q.At(i, 0) - y[i]
		loss += float64(d * d)
		gradQ.Set(i, 0, 2*d/float64(n))
	}
	loss /= float64(n)
	criticGrads := a.Critic.BackwardWS(scr.criticWS, gradQ)
	a.criticOpt.Step(a.Critic, criticGrads)

	// Actor step: ascend Q(s, μ(s)) — backprop dQ/da through the critic to
	// the action inputs, then through the actor. The actor workspace still
	// caches μ(S) from the forward pass below when BackwardWS runs.
	aPred := a.Actor.ForwardWS(scr.actorWS, S)
	a.Critic.ForwardWS(scr.criticWS, tensor.HStackInto(scr.sa, S, aPred))
	gradA := a.Critic.BackwardInputWS(scr.criticWS, scr.ones, ds, ds+da)
	actorGrads := a.Actor.BackwardWS(scr.actorWS, gradA)
	a.actorOpt.Step(a.Actor, actorGrads)

	// Soft target updates.
	nn.SoftUpdate(a.ActorT, a.Actor, a.Cfg.Tau)
	nn.SoftUpdate(a.CriticT, a.Critic, a.Cfg.Tau)
	return loss
}
