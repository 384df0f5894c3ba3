package sim

import (
	"math"
	"testing"
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
