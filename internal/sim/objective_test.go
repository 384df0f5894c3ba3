package sim

import (
	"errors"
	"math"
	"testing"

	"distredge/internal/strategy"
)

// TestLatencyObjectiveWrapsEnvLatency pins the latency objective to
// Env.Latency bit-for-bit, and its episode form to a pass-through of the
// already-simulated latency.
func TestLatencyObjectiveWrapsEnvLatency(t *testing.T) {
	for _, constant := range []bool{true, false} {
		env := equivEnv(t, constant)
		for si, s := range equivStrategies(env.Model, env.NumProviders()) {
			for _, at := range []float64{0, 17.3} {
				want, _, err := env.Latency(s, at)
				if err != nil {
					t.Fatal(err)
				}
				got, err := LatencyObjective{}.Score(env, s, at)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("strategy %d at %g: score %.17g != latency %.17g", si, at, got, want)
				}
				ep, err := LatencyObjective{}.EpisodeScore(env, s, at, 0.125)
				if err != nil || ep != 0.125 {
					t.Errorf("episode score must pass the sequential latency through, got %g, %v", ep, err)
				}
			}
		}
	}
}

// TestThroughputObjectiveWrapsSteadyIPS pins the throughput objective to
// 1/PipelineStreamOpts.SteadyIPS at the configured window.
func TestThroughputObjectiveWrapsSteadyIPS(t *testing.T) {
	env := equivEnv(t, false)
	s := equivStrategies(env.Model, env.NumProviders())[0]
	obj := ThroughputObjective{Window: 4, Images: 24}
	want, err := env.Serve(s, oneTenant(24, 4, 2.5))
	if err != nil {
		t.Fatal(err)
	}
	got, err := obj.Score(env, s, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1/want.SteadyIPS {
		t.Errorf("score %.17g != 1/SteadyIPS %.17g", got, 1/want.SteadyIPS)
	}
	// The episode form ignores the sequential latency entirely.
	ep, err := obj.EpisodeScore(env, s, 2.5, 1e9)
	if err != nil || ep != got {
		t.Errorf("episode score %g (%v) != score %g", ep, err, got)
	}
}

// TestObjectiveDefaults covers the nil conveniences.
func TestObjectiveDefaults(t *testing.T) {
	if !IsLatencyObjective(nil) || !IsLatencyObjective(LatencyObjective{}) {
		t.Error("nil and LatencyObjective must both read as the latency default")
	}
	if IsLatencyObjective(ThroughputObjective{}) {
		t.Error("ThroughputObjective is not the latency default")
	}
	if DefaultObjective(nil).Name() != "latency" {
		t.Error("DefaultObjective(nil) must be the latency objective")
	}
	o := ThroughputObjective{}.withDefaults()
	if o.Window != 4 || o.Images != 4*4+8 {
		t.Errorf("unexpected throughput defaults: %+v", o)
	}
}

// TestSteadyIPSZeroSpanFallsBackToIPS is the regression test for the
// zero-span division: when every second-half image completes at the same
// timestamp the steady-rate estimate must fall back to the overall IPS
// instead of returning +Inf or NaN.
func TestSteadyIPSZeroSpanFallsBackToIPS(t *testing.T) {
	if got := steadyIPS([]float64{3, 3, 3, 3}, 42); got != 42 {
		t.Errorf("zero span: got %g, want fallback 42", got)
	}
	if got := steadyIPS([]float64{5}, 7); got != 7 {
		t.Errorf("single image: got %g, want fallback 7", got)
	}
	if got := steadyIPS(nil, 9); got != 9 {
		t.Errorf("empty timeline: got %g, want fallback 9", got)
	}
	// The well-defined case is unchanged: 2 completions over the half span.
	complete := []float64{1, 2, 3, 4}
	want := 2 / (complete[3] - complete[1])
	if got := steadyIPS(complete, 0); got != want {
		t.Errorf("normal case: got %.17g, want %.17g", got, want)
	}
	if math.IsInf(steadyIPS([]float64{1, 1}, 5), 0) {
		t.Error("two identical completions must not divide by zero")
	}
}

// scoreTable is an Objective that looks each strategy's score up by
// identity; a strategy it does not hold fails to score.
type scoreTable map[*strategy.Strategy]float64

var errUnscored = errors.New("unscored strategy")

func (scoreTable) Name() string { return "table" }

func (t scoreTable) Score(_ *Env, s *strategy.Strategy, _ float64) (float64, error) {
	sc, ok := t[s]
	if !ok {
		return 0, errUnscored
	}
	return sc, nil
}

func (t scoreTable) EpisodeScore(e *Env, s *strategy.Strategy, at, _ float64) (float64, error) {
	return t.Score(e, s, at)
}

// TestRankIsTheObjectiveAtInstantZero pins Rank to the objective's score at
// trace instant 0, nil meaning latency.
func TestRankIsTheObjectiveAtInstantZero(t *testing.T) {
	env := equivEnv(t, false)
	s := equivStrategies(env.Model, env.NumProviders())[0]
	for _, obj := range []Objective{nil, LatencyObjective{}, ThroughputObjective{Window: 4}} {
		want, err := DefaultObjective(obj).Score(env, s, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Rank(env, obj, s)
		if err != nil || got != want {
			t.Errorf("%s: Rank = %.17g, %v; want %.17g", DefaultObjective(obj).Name(), got, err, want)
		}
	}
}

// TestBestKeepsTheEarlierCandidateOnATie: the first candidate is kept
// until one ranks strictly lower, and a later equal score does not
// replace it.
func TestBestKeepsTheEarlierCandidateOnATie(t *testing.T) {
	a, b, c := new(strategy.Strategy), new(strategy.Strategy), new(strategy.Strategy)
	obj := scoreTable{a: 2, b: 1, c: 1}
	var best Best
	for _, s := range []*strategy.Strategy{a, b, c} {
		if err := best.Consider(nil, obj, s); err != nil {
			t.Fatal(err)
		}
	}
	if best.Strategy != b || best.Score != 1 {
		t.Errorf("best = %p at %g, want the earlier tied candidate %p at 1", best.Strategy, best.Score, b)
	}
	var inf Best
	if err := inf.Consider(nil, scoreTable{a: math.Inf(1)}, a); err != nil || inf.Strategy != a {
		t.Errorf("the first candidate must be kept whatever it scores, got %p, %v", inf.Strategy, err)
	}
}

// TestBestReturnsTheScoringError: a candidate that fails to score returns
// its error unwrapped and leaves the best as it was.
func TestBestReturnsTheScoringError(t *testing.T) {
	a, bad := new(strategy.Strategy), new(strategy.Strategy)
	obj := scoreTable{a: 3}
	var best Best
	if err := best.Consider(nil, obj, a); err != nil {
		t.Fatal(err)
	}
	if err := best.Consider(nil, obj, bad); !errors.Is(err, errUnscored) {
		t.Fatalf("Consider of an unscorable candidate = %v, want %v", err, errUnscored)
	}
	if best.Strategy != a || best.Score != 3 {
		t.Errorf("a failed candidate changed the best to %p at %g", best.Strategy, best.Score)
	}
}

// TestBestAllocatesNothing: ranking candidates costs only what the
// objective's own scoring costs.
func TestBestAllocatesNothing(t *testing.T) {
	a, b := new(strategy.Strategy), new(strategy.Strategy)
	var obj Objective = scoreTable{a: 2, b: 1}
	allocs := testing.AllocsPerRun(100, func() {
		var best Best
		_ = best.Consider(nil, obj, a)
		_ = best.Consider(nil, obj, b)
		if best.Strategy != b {
			t.Fatal("wrong best")
		}
	})
	if allocs != 0 {
		t.Errorf("Best.Consider allocates %.0f objects per two candidates, want 0", allocs)
	}
}
