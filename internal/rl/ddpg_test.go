package rl

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"distredge/internal/nn"
)

func TestReplayBasics(t *testing.T) {
	r := NewReplay(3, 1)
	if r.Len() != 0 {
		t.Fatal("new buffer must be empty")
	}
	for i := 0; i < 5; i++ {
		r.Add(Transition{Reward: float64(i)})
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (capacity)", r.Len())
	}
	// Oldest entries (0,1) must have been evicted.
	seen := map[float64]bool{}
	for i := 0; i < 100; i++ {
		for _, tr := range r.SampleInto(make([]Transition, 3)) {
			seen[tr.Reward] = true
		}
	}
	if seen[0] || seen[1] {
		t.Error("evicted transitions still sampled")
	}
	if !seen[2] || !seen[3] || !seen[4] {
		t.Error("live transitions never sampled")
	}
}

// TestReplaySamplingSequence holds the flat replay storage to the buffer it
// replaced, a slice of Transition values overwritten FIFO: the same seed
// draws the same transitions, evictions included.
func TestReplaySamplingSequence(t *testing.T) {
	const capacity, seed = 6, 9
	r := NewReplay(capacity, seed)
	var ref []Transition
	next := 0
	for i := 0; i < 17; i++ {
		f := float64(i)
		tr := Transition{State: []float64{f, -f}, Action: []float64{f / 10}, Reward: f * f, NextState: []float64{f + 1, -f - 1}, Done: i%3 == 0}
		r.Add(tr)
		if len(ref) < capacity {
			ref = append(ref, tr)
		} else {
			ref[next] = tr
			next = (next + 1) % capacity
		}
		if i == 3 || i == 16 { // sample while growing and once full
			refRNG := rand.New(rand.NewSource(seed))
			r.rng = rand.New(rand.NewSource(seed))
			got := r.SampleInto(make([]Transition, 20))
			for k, g := range got {
				w := ref[refRNG.Intn(len(ref))]
				if g.Reward != w.Reward || g.Done != w.Done || !equal(g.State, w.State) ||
					!equal(g.Action, w.Action) || !equal(g.NextState, w.NextState) {
					t.Fatalf("after %d adds, draw %d = %+v, want %+v", i+1, k, g, w)
				}
			}
		}
	}
}

// TestReplayCopiesTransitions: Add keeps its own copy, so the trainer may
// refill the slices it passed for the next episode.
func TestReplayCopiesTransitions(t *testing.T) {
	for _, capacity := range []int{1, 4} { // overwrite path and append path
		r := NewReplay(capacity, 1)
		s, a, s2 := []float64{1, 2}, []float64{3}, []float64{4, 5}
		for i := 0; i < capacity; i++ {
			r.Add(Transition{State: s, Action: a, Reward: 6, NextState: s2})
		}
		s[0], a[0], s2[1] = -1, -3, -5
		got := r.SampleInto(make([]Transition, 1))[0]
		if !equal(got.State, []float64{1, 2}) || !equal(got.Action, []float64{3}) || !equal(got.NextState, []float64{4, 5}) {
			t.Errorf("capacity %d: stored transition %+v aliases the caller's slices", capacity, got)
		}
		if cap(got.State) != 2 || cap(got.Action) != 1 {
			t.Errorf("capacity %d: sampled views reach past their row: caps %d/%d", capacity, cap(got.State), cap(got.Action))
		}
	}
}

func equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestReplayMinCapacity(t *testing.T) {
	r := NewReplay(0, 1)
	r.Add(Transition{Reward: 7})
	if r.Len() != 1 || r.SampleInto(make([]Transition, 1))[0].Reward != 7 {
		t.Error("capacity floor of 1 broken")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{StateDim: 0, ActionDim: 2}); err == nil {
		t.Error("zero state dim must error")
	}
	if _, err := New(Config{StateDim: 2, ActionDim: 0}); err == nil {
		t.Error("zero action dim must error")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{StateDim: 2, ActionDim: 1}.withDefaults()
	if c.Gamma != 0.99 || c.ActorLR != 1e-4 || c.CriticLR != 1e-3 {
		t.Errorf("defaults wrong: %+v", c)
	}
	if len(c.Hidden) != 3 || c.Hidden[0] != 400 {
		t.Errorf("default hidden sizes wrong: %v", c.Hidden)
	}
}

func TestActionBounds(t *testing.T) {
	a, err := New(Config{StateDim: 3, ActionDim: 2, Hidden: []int{16}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := []float64{0.5, -1, 2}
	for _, act := range [][]float64{a.Action(make([]float64, 2), s), a.NoisyAction(make([]float64, 2), s, 0.5)} {
		if len(act) != 2 {
			t.Fatalf("action dim %d, want 2", len(act))
		}
		for _, v := range act {
			if v < -1 || v > 1 {
				t.Fatalf("action %g out of [-1,1]", v)
			}
		}
	}
}

func TestActionDeterministic(t *testing.T) {
	a, _ := New(Config{StateDim: 2, ActionDim: 1, Hidden: []int{8}, Seed: 2})
	s := []float64{0.3, 0.7}
	x, y := a.Action(make([]float64, 1), s), a.Action(make([]float64, 1), s)
	if x[0] != y[0] {
		t.Error("deterministic policy must repeat")
	}
}

func TestUpdateRequiresBatch(t *testing.T) {
	a, _ := New(Config{StateDim: 2, ActionDim: 1, Hidden: []int{8}, Seed: 3})
	if loss := a.Update(16); loss != 0 {
		t.Error("update with empty buffer must be a no-op")
	}
}

func TestDDPGSolvesBandit(t *testing.T) {
	// One-step continuous bandit: reward = 1 - (a - target)², maximised at
	// a = target. DDPG must steer the policy toward the target.
	target := 0.4
	a, err := New(Config{
		StateDim: 1, ActionDim: 1, Hidden: []int{32, 32},
		ActorLR: 1e-3, CriticLR: 1e-2, Seed: 4, Tau: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	state := []float64{1}
	explore := rand.New(rand.NewSource(4))
	act := make([]float64, 1)
	for ep := 0; ep < 400; ep++ {
		if ep < 100 {
			act[0] = 2*explore.Float64() - 1 // uniform pure exploration
		} else {
			a.NoisyAction(act, state, 0.2)
		}
		r := 1 - (act[0]-target)*(act[0]-target)
		a.Buf.Add(Transition{State: state, Action: act, Reward: r, NextState: state, Done: true})
		a.Update(32)
	}
	got := a.Action(act, state)[0]
	if math.Abs(got-target) > 0.25 {
		t.Errorf("policy converged to %g, want ~%g", got, target)
	}
}

func TestUpdateReducesCriticLoss(t *testing.T) {
	a, _ := New(Config{StateDim: 1, ActionDim: 1, Hidden: []int{16, 16}, CriticLR: 1e-2, Seed: 5})
	// Fill with a fixed deterministic mapping r = s*a.
	for i := 0; i < 256; i++ {
		s := float64(i%16)/8 - 1
		act := float64(i%7)/3 - 1
		a.Buf.Add(Transition{State: []float64{s}, Action: []float64{act}, Reward: s * act, NextState: []float64{s}, Done: true})
	}
	first := a.Update(64)
	var last float64
	for i := 0; i < 200; i++ {
		last = a.Update(64)
	}
	if last > first {
		t.Errorf("critic loss did not decrease: first %g, last %g", first, last)
	}
}

// TestReleasedAgentIsFresh: an agent New takes back from the pool — after
// training that wrapped its replay buffer, moved its Adam state and its
// targets — acts and trains exactly as a never-pooled agent of the same
// Config: the same actions, losses and weights, bit for bit.
func TestReleasedAgentIsFresh(t *testing.T) {
	cfg := Config{StateDim: 3, ActionDim: 2, Hidden: []int{8, 8}, BufferCap: 20, Seed: 9}
	train := func(a *Agent, seed int64) []float64 {
		rng := rand.New(rand.NewSource(seed))
		var trace []float64
		act := make([]float64, cfg.ActionDim)
		for i := 0; i < 50; i++ { // wraps the 20-transition buffer
			s := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
			a.NoisyAction(act, s, 0.3)
			a.Buf.Add(Transition{State: s, Action: act, Reward: rng.Float64(), NextState: s, Done: i%5 == 4})
			trace = append(append(trace, act...), a.Update(8))
		}
		for _, m := range []*nn.MLP{a.Actor, a.Critic, a.ActorT, a.CriticT} {
			for l := range m.W {
				trace = append(append(trace, m.W[l].A...), m.B[l]...)
			}
		}
		return trace
	}
	fresh := alloc(cfg.withDefaults())
	fresh.init(cfg.withDefaults())
	want := train(fresh, 2)

	hit := false
	for attempt := 0; attempt < 20 && !hit; attempt++ {
		used, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		train(used, 1)
		used.Release()
		a, _ := New(cfg)
		hit = a == used
		if got := train(a, 2); !slices.Equal(got, want) {
			t.Fatalf("a released agent trains differently from a fresh one (pooled: %v)", hit)
		}
		a.Release()
	}
	if !hit {
		t.Error("New never returned the released agent in 20 attempts")
	}
}
