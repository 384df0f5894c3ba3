package splitter

import (
	"testing"

	"distredge/internal/cnn"
	"distredge/internal/device"
	"distredge/internal/network"
	"distredge/internal/sim"
	"distredge/internal/strategy"
)

func objectiveTestEnv(seed int64) *sim.Env {
	devs := device.Fleet(device.Xavier, device.Xavier, device.Nano, device.Nano)
	return &sim.Env{
		Model:   cnn.VGG16(),
		Devices: device.AsModels(devs),
		Net:     network.NewStable([]float64{200, 200, 200, 200}, 10, seed),
	}
}

func tinyConfig(seed int64) Config {
	return Config{Episodes: 25, Hidden: []int{16, 16}, Batch: 16, Seed: seed, WarmStart: true}
}

// TestNilObjectiveBitIdenticalToExplicitLatency is the splitter-level
// objective-equivalence test: a search with no objective set and a search
// with sim.LatencyObjective named explicitly must visit the identical
// episode sequence and return the identical strategy — the objective
// plumbing is invisible for the default.
func TestNilObjectiveBitIdenticalToExplicitLatency(t *testing.T) {
	boundaries := []int{0, 10, 14, 18}
	run := func(obj sim.Objective) *Result {
		cfg := tinyConfig(7)
		cfg.Objective = obj
		res, err := Search(objectiveTestEnv(7), boundaries, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run(nil)
	b := run(sim.LatencyObjective{})
	if a.BestLatency != b.BestLatency {
		t.Errorf("best scores differ: %.17g != %.17g", a.BestLatency, b.BestLatency)
	}
	if len(a.Episodes) != len(b.Episodes) {
		t.Fatalf("episode counts differ: %d != %d", len(a.Episodes), len(b.Episodes))
	}
	for i := range a.Episodes {
		if a.Episodes[i] != b.Episodes[i] {
			t.Fatalf("episode %d scores differ: %.17g != %.17g", i, a.Episodes[i], b.Episodes[i])
		}
	}
	for v := range a.Strategy.Splits {
		for i, c := range a.Strategy.Splits[v] {
			if b.Strategy.Splits[v][i] != c {
				t.Fatalf("strategies differ at volume %d", v)
			}
		}
	}
}

// TestThroughputObjectiveFindsPipelinedPlan checks the throughput-driven
// search end to end: under sim.ThroughputObjective the best strategy must
// score strictly better on steady pipelined seconds-per-image than the
// latency-driven search's choice, and worse (or equal) on sequential
// latency — the two objectives genuinely pull the search apart.
func TestThroughputObjectiveFindsPipelinedPlan(t *testing.T) {
	env := objectiveTestEnv(7)
	boundaries := []int{0, 6, 10, 14, 18}
	obj := sim.ThroughputObjective{Window: 4}

	latCfg := tinyConfig(7)
	latRes, err := Search(env, boundaries, latCfg)
	if err != nil {
		t.Fatal(err)
	}
	ipsCfg := tinyConfig(7)
	ipsCfg.Objective = obj
	ipsRes, err := Search(env, boundaries, ipsCfg)
	if err != nil {
		t.Fatal(err)
	}

	latPlanThroughput, err := obj.Score(env, latRes.Strategy, 0)
	if err != nil {
		t.Fatal(err)
	}
	ipsPlanThroughput, err := obj.Score(env, ipsRes.Strategy, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("steady sec/img at window 4: latency-planned %.4f, ips-planned %.4f", latPlanThroughput, ipsPlanThroughput)
	if ipsPlanThroughput >= latPlanThroughput {
		t.Errorf("throughput search did not beat the latency search on its own objective: %.5f >= %.5f",
			ipsPlanThroughput, latPlanThroughput)
	}
}

// TestObjectiveReplanLatencyDefaultIsBalanced pins that recovery under the
// latency default is exactly the pre-objective re-planner.
func TestObjectiveReplanLatencyDefaultIsBalanced(t *testing.T) {
	env := objectiveTestEnv(3)
	boundaries := []int{0, 10, 14, 18}
	old, err := BalancedSubset(env, boundaries, []bool{true, true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	alive := []bool{true, false, true, true}
	want, err := BalancedReplan(env, old, alive)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ObjectiveReplan(nil)(env, old, alive)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want.Splits {
		for i, c := range want.Splits[v] {
			if got.Splits[v][i] != c {
				t.Fatalf("volume %d differs from BalancedReplan", v)
			}
		}
	}
}

// TestObjectiveReplanPicksBetterScoringLayout checks the throughput
// re-planner: it must return a valid full-fleet strategy with empty parts
// for the dead provider, and its objective score must be min(balanced,
// stage) — the better of the two training-free survivor layouts.
func TestObjectiveReplanPicksBetterScoringLayout(t *testing.T) {
	env := objectiveTestEnv(3)
	boundaries := []int{0, 6, 10, 14, 18}
	obj := sim.ThroughputObjective{Window: 4}
	alive := []bool{true, true, false, true}
	old, err := BalancedSubset(env, boundaries, []bool{true, true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ObjectiveReplan(obj)(env, old, alive)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(env.Model, env.NumProviders()); err != nil {
		t.Fatalf("re-planned strategy invalid: %v", err)
	}
	for v := 0; v < got.NumVolumes(); v++ {
		if !got.PartRange(env.Model, v, 2).Empty() {
			t.Fatalf("dead provider 2 owns rows in volume %d", v)
		}
	}
	bal, err := BalancedSubset(env, boundaries, alive)
	if err != nil {
		t.Fatal(err)
	}
	stage, err := strategy.Lift(env.Model, strategy.Stage(env.Model, boundaries, 3), alive)
	if err != nil {
		t.Fatal(err)
	}
	gotScore, err := obj.Score(env, got, 0)
	if err != nil {
		t.Fatal(err)
	}
	balScore, err := obj.Score(env, bal, 0)
	if err != nil {
		t.Fatal(err)
	}
	stageScore, err := obj.Score(env, stage, 0)
	if err != nil {
		t.Fatal(err)
	}
	best := balScore
	if stageScore < best {
		best = stageScore
	}
	if gotScore != best {
		t.Errorf("replan score %.6f != best candidate %.6f (bal %.6f, stage %.6f)",
			gotScore, best, balScore, stageScore)
	}
}

// lastWins ranks every strategy it scores below all earlier ones, so
// sim.Best keeps the last candidate it is handed.
type lastWins struct{ calls *int }

func (lastWins) Name() string { return "last-wins" }

func (o lastWins) Score(*sim.Env, *strategy.Strategy, float64) (float64, error) {
	*o.calls++
	return -float64(*o.calls), nil
}

func (o lastWins) EpisodeScore(e *sim.Env, s *strategy.Strategy, at, _ float64) (float64, error) {
	return o.Score(e, s, at)
}

// TestObjectiveReplanStageRotatesOverSurvivors pins the shape of
// ObjectiveReplan's stage candidate, the second one it ranks: volume v
// whole on the (v mod live)-th survivor, dead providers empty.
func TestObjectiveReplanStageRotatesOverSurvivors(t *testing.T) {
	env := objectiveTestEnv(5)
	boundaries := []int{0, 6, 10, 14, 18}
	alive := []bool{true, false, true, true}
	old, err := BalancedSubset(env, boundaries, []bool{true, true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	s, err := ObjectiveReplan(lastWins{new(int)})(env, old, alive)
	if err != nil {
		t.Fatal(err)
	}
	liveIdx := []int{0, 2, 3}
	for v := 0; v < s.NumVolumes(); v++ {
		owner := liveIdx[v%len(liveIdx)]
		h := strategy.VolumeHeight(env.Model, boundaries, v)
		for i := 0; i < env.NumProviders(); i++ {
			part := s.PartRange(env.Model, v, i)
			if i == owner {
				if part.Len() != h {
					t.Fatalf("volume %d: owner %d holds %d of %d rows", v, owner, part.Len(), h)
				}
			} else if !part.Empty() {
				t.Fatalf("volume %d: provider %d must be empty", v, i)
			}
		}
	}
}
