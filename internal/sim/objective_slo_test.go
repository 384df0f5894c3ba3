package sim

import (
	"errors"
	"strings"
	"testing"
)

// TestSLOObjectiveFeasibleMatchesThroughput pins the constrained objective
// to ThroughputObjective on feasible strategies: with a bound no strategy
// violates, the scores are bit-identical.
func TestSLOObjectiveFeasibleMatchesThroughput(t *testing.T) {
	env := equivEnv(t, false)
	s := equivStrategies(env.Model, env.NumProviders())[0]
	slo := SLOThroughputObjective{Window: 4, Images: 24, P95Sec: 1e9}
	ips := ThroughputObjective{Window: 4, Images: 24}
	got, err := slo.Score(env, s, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ips.Score(env, s, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("feasible slo score %.17g != throughput score %.17g", got, want)
	}
	if _, err := slo.eval(env, s, 2.5, true); err != nil {
		t.Errorf("loose bound must be feasible, got %v", err)
	}
	ep, err := slo.EpisodeScore(env, s, 2.5, 1e9)
	if err != nil || ep != got {
		t.Errorf("episode score %g (%v) != score %g", ep, err, got)
	}
	if slo.Name() != "slo" {
		t.Errorf("name %q", slo.Name())
	}
}

// TestSLOObjectiveViolationPenalised covers the infeasible side: eval
// rejects with ErrSLOViolated and Score returns a finite penalty that is
// (a) past any feasible score and (b) monotone in the violation, so the
// planner's search gradient still points toward the bound.
func TestSLOObjectiveViolationPenalised(t *testing.T) {
	env := equivEnv(t, false)
	s := equivStrategies(env.Model, env.NumProviders())[0]
	tight := SLOThroughputObjective{Window: 4, Images: 24, P95Sec: 1e-9}
	res, err := tight.eval(env, s, 0, true)
	if !errors.Is(err, ErrSLOViolated) {
		t.Fatalf("tight bound: eval err = %v, want ErrSLOViolated", err)
	}
	if res.P95LatMS <= 0 {
		t.Fatalf("violating eval must still return the result, got %+v", res)
	}
	score, err := tight.Score(env, s, 0)
	if err != nil {
		t.Fatalf("Score must penalise, not error: %v", err)
	}
	if score < sloPenaltySec {
		t.Errorf("violating score %g below the penalty floor %g", score, sloPenaltySec)
	}
	feasible, err := SLOThroughputObjective{Window: 4, Images: 24, P95Sec: 1e9}.Score(env, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if score <= feasible {
		t.Errorf("violating score %g must exceed feasible %g", score, feasible)
	}
	// A looser-but-still-violated bound scores better: the gradient exists.
	looser := SLOThroughputObjective{Window: 4, Images: 24, P95Sec: 2e-9}
	ls, err := looser.Score(env, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !(ls < score) {
		t.Errorf("penalty must shrink as the bound loosens: %g !< %g", ls, score)
	}
}

// TestSLOObjectiveRequiresBound: a missing or non-positive bound is a
// config error, not silently unconstrained.
func TestSLOObjectiveRequiresBound(t *testing.T) {
	env := equivEnv(t, true)
	s := equivStrategies(env.Model, env.NumProviders())[0]
	for _, bound := range []float64{0, -1} {
		o := SLOThroughputObjective{P95Sec: bound}
		if _, err := o.eval(env, s, 0, true); err == nil || !strings.Contains(err.Error(), "bound must be positive") {
			t.Errorf("bound %g: eval err = %v, want bound error", bound, err)
		}
		if _, err := o.Score(env, s, 0); err == nil {
			t.Errorf("bound %g: Score must propagate the config error", bound)
		}
	}
}
