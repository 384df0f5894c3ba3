package experiments

import (
	"crypto/sha256"
	"encoding/hex"
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

// TestRequestPlanDescendsBelowFull: a request, cold or warm-started, runs
// splitter.Descend on its boundary sets below Full's episode count and
// splitter.Search at or above it. A warm request does so on the half
// budget either way (499 and 500 episodes both halve to 250). The expected
// plans rank the seed, then each boundary set's result and stage anchor,
// through sim.Best, as Plan does. The IPS fleet is one where the descent
// and the training plan differently, so the two rules are told apart.
func TestRequestPlanDescendsBelowFull(t *testing.T) {
	obj := sim.ThroughputObjective{Window: 4}
	donor := DeviceGroups()[0].Spec(cnn.VGG16(), 100, 1).Env()
	env := DeviceGroups()[0].Spec(cnn.VGG16(), 300, 1).Env()
	n := env.NumProviders()
	b := Budget{Episodes: Full().Episodes, Hidden: []int{16, 16}, Batch: 16, RandomSplits: 20, Seed: 1}
	seed, err := Request{Budget: Tiny(), Alpha: 0.75, Objective: obj}.Plan(donor, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	lcp, err := LCPSS(env, b, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	for _, init := range []*strategy.Strategy{nil, seed} {
		var sets [][]int
		for i, set := range [][]int{lcp, seed.Boundaries, StageBoundaries(env.Model, n)} {
			if init == nil && i == 1 { // a cold request has no seed boundaries
				continue
			}
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
			cfg := osdsConfig(b, n)
			cfg.Objective = obj
			if init != nil {
				consider(init)
				cfg.Episodes, cfg.InitSplits = (b.Episodes+1)/2, init.Splits
			}
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
		kind := "a cold"
		if init != nil {
			kind = "a warm"
		}
		descended, searched := plan(splitter.Descend), plan(splitter.Search)
		if reflect.DeepEqual(descended, searched) {
			t.Fatalf("%s request: the descent and the search plan the same strategy here: pick a fleet where they differ", kind)
		}
		for _, c := range []struct {
			episodes int
			want     *strategy.Strategy
			rule     string
		}{{Full().Episodes - 1, descended, "a descent"}, {Full().Episodes, searched, "a search"}} {
			req := Request{Budget: b, Alpha: 0.75, Objective: obj}
			req.Budget.Episodes = c.episodes
			got, err := req.Plan(env, init, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("%s request at %d episodes plans %v, want %s's %v", kind, c.episodes, got.Splits, c.rule, c.want.Splits)
			}
		}
	}
}

// fullPlanSHA256 are the SHA-256s of the saved plans below, recorded
// before the descent replaced training below full: at Full's episode count
// and above a request still trains, and plans the same bytes.
var fullPlanSHA256 = map[string]string{
	"cold latency": "ab47fb33f4d2c95d64c9b010ad6c6106da8e590fdcc846f2029e63be37e1a572",
	"warm ips":     "5fd4bffa5c0d98294e81c6062556745eb38f7819f1b42b1a42c7a45980d515e6",
}

// TestRequestPlanTrainsAtFull pins a cold latency request and a warm IPS
// request at Full's episode count (on tiny's network shape, so it runs in
// a fraction of a second) to the bytes they planned before the descent.
func TestRequestPlanTrainsAtFull(t *testing.T) {
	b := Tiny()
	b.Episodes = Full().Episodes
	donor := DeviceGroups()[0].Spec(cnn.VGG16(), 100, 1).Env()
	env := DeviceGroups()[0].Spec(cnn.VGG16(), 300, 1).Env()
	ips := sim.ThroughputObjective{Window: 4}
	seed, err := Request{Budget: b, Alpha: 0.75, Objective: ips}.Plan(donor, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		obj  sim.Objective
		init *strategy.Strategy
	}{{"cold latency", nil, nil}, {"warm ips", ips, seed}} {
		s, err := Request{Budget: b, Alpha: 0.75, Objective: c.obj}.Plan(env, c.init, nil)
		if err != nil {
			t.Fatal(err)
		}
		data, err := strategy.MarshalJSON(s, env.Model.Name)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != fullPlanSHA256[c.name] {
			t.Errorf("%s: plan SHA-256 %s, want %s:\n%s", c.name, got, fullPlanSHA256[c.name], data)
		}
	}
}
