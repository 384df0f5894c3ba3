package experiments

import (
	"reflect"
	"slices"
	"testing"

	"distredge/internal/cnn"
	"distredge/internal/sim"
	"distredge/internal/splitter"
	"distredge/internal/strategy"
)

// TestRequestIDCoversEveryBudgetField perturbs each Budget field (the seed
// among them) and α, one at a time, and requires Request.ID to change: a
// plan-cache key must name every input that decides a plan. A field that
// decides none is listed in notDeciding with the reason, so a Budget field
// added later fails here until ID keys it or the list explains it.
func TestRequestIDCoversEveryBudgetField(t *testing.T) {
	notDeciding := map[string]string{
		"StreamImages": "sizes the IPS measurement after planning; the search never reads it",
		"Parallel":     "sizes the figure harnesses' worker pool; plans are byte-identical for any value",
	}
	base := Request{Budget: Tiny(), Alpha: 0.75}
	id := base.ID()

	typ := reflect.TypeOf(Budget{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		req := base
		f := reflect.ValueOf(&req.Budget).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Slice:
			f.Set(reflect.Append(f, reflect.ValueOf(1)))
		default:
			t.Fatalf("Budget.%s has kind %s: teach this test to perturb it", name, f.Kind())
		}
		moved := !reflect.DeepEqual(req.ID(), id)
		switch _, listed := notDeciding[name]; {
		case moved && listed:
			t.Errorf("Budget.%s moves the ID but is listed in notDeciding: drop its row", name)
		case !moved && !listed:
			t.Errorf("Budget.%s does not move the ID: key it in Request.ID, or list it in notDeciding with a reason", name)
		}
	}
	for name := range notDeciding {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("notDeciding row %s is stale: Budget has no such field", name)
		}
	}

	req := base
	req.Alpha = 0.3
	if reflect.DeepEqual(req.ID(), id) {
		t.Error("perturbing α leaves the ID unmoved")
	}
}

// TestRequestPlanWarmRescoresBelowFull: a warm-started request runs
// splitter.Rescore on its boundary sets below Full's episode count and
// splitter.Search at or above it, on the same half budget either way (499
// and 500 episodes both halve to 250). The expected plans rank the seed,
// then each boundary set's result and stage anchor, through sim.Best, as
// Plan does. The IPS fleet is one where the training after the warm-start
// schedule moves the plan, so the two rules are told apart.
func TestRequestPlanWarmRescoresBelowFull(t *testing.T) {
	obj := sim.ThroughputObjective{Window: 4}
	donor := DeviceGroups()[0].Spec(cnn.VGG16(), 200, 1).Env()
	env := DeviceGroups()[0].Spec(cnn.VGG16(), 300, 1).Env()
	n := env.NumProviders()
	b := Budget{Episodes: Full().Episodes, Hidden: []int{16, 16}, Batch: 16, RandomSplits: 20, Seed: 1}
	init, err := Request{Budget: Tiny(), Alpha: 0.75, Objective: obj}.Plan(donor, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	lcp, err := LCPSS(env, b, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	var sets [][]int
	for _, set := range [][]int{lcp, init.Boundaries, StageBoundaries(env.Model, n)} {
		if !slices.ContainsFunc(sets, func(have []int) bool { return slices.Equal(have, set) }) {
			sets = append(sets, set)
		}
	}
	plan := func(search func(*sim.Env, []int, splitter.Config) (*splitter.Result, error)) *strategy.Strategy {
		t.Helper()
		var best sim.Best
		consider := func(s *strategy.Strategy) {
			if err := best.Consider(env, obj, s); err != nil {
				t.Fatal(err)
			}
		}
		consider(init)
		cfg := osdsConfig(b, n)
		cfg.Objective, cfg.Episodes, cfg.InitSplits = obj, (b.Episodes+1)/2, init.Splits
		for _, set := range sets {
			res, err := search(env, set, cfg)
			if err != nil {
				t.Fatal(err)
			}
			consider(res.Strategy)
			consider(strategy.Stage(env.Model, set, n))
		}
		return best.Strategy
	}
	rescored, searched := plan(splitter.Rescore), plan(splitter.Search)
	if reflect.DeepEqual(rescored, searched) {
		t.Fatal("the re-score and the search plan the same strategy here: pick a fleet where training moves the plan")
	}
	for _, c := range []struct {
		episodes int
		want     *strategy.Strategy
		rule     string
	}{{Full().Episodes - 1, rescored, "a re-score"}, {Full().Episodes, searched, "a search"}} {
		req := Request{Budget: b, Alpha: 0.75, Objective: obj}
		req.Budget.Episodes = c.episodes
		got, err := req.Plan(env, init, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("a warm request at %d episodes plans %v, want %s's %v", c.episodes, got.Splits, c.rule, c.want.Splits)
		}
	}
}
