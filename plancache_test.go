package distredge

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
)

// TestPlanCachedBytesPinned pins the plan-cache service's bytes at tiny
// effort: for each model of the plan-mix corpus under the latency and the
// ips objective, one fleet planned cold, a half-octave neighbour (every link
// √2 faster) warm-started from it, and the first fleet again, now a hit,
// all through one shared cache. The SHA-256 of every SavePlan in order is
// pinned, so a change that moves any planned byte — kernels, LC-PSS, OSDS,
// warm starts or the cache — fails here.
func TestPlanCachedBytesPinned(t *testing.T) {
	const want = "e309de6ef240c8f82ece7cc31691c66948c3b5d406b529750e611373e3084837"
	fleet := func(bw float64) []Provider {
		return []Provider{
			{Type: "xavier", BandwidthMbps: bw},
			{Type: "tx2", BandwidthMbps: bw},
			{Type: "nano", BandwidthMbps: bw},
		}
	}
	pc := NewPlanCache(0)
	h := sha256.New()
	for _, model := range []string{"vgg16", "resnet50", "yolov2", "inceptionv3"} {
		for _, obj := range []Objective{ObjectiveLatency, ObjectiveIPS} {
			cfg := PlanConfig{Effort: EffortTiny, Objective: obj, ObjectiveWindow: 4}
			for _, step := range []struct {
				bw   float64
				want PlanOutcome
			}{{100, PlanCold}, {100 * math.Sqrt2, PlanWarm}, {100, PlanHit}} {
				sys, err := New(model, fleet(step.bw), WithSeed(1))
				if err != nil {
					t.Fatal(err)
				}
				p, out, err := sys.PlanCached(cfg, pc)
				if err != nil {
					t.Fatalf("%s/%s at %.0f Mbps: %v", model, obj, step.bw, err)
				}
				if out != step.want {
					t.Fatalf("%s/%s at %.0f Mbps: outcome %q, want %q", model, obj, step.bw, out, step.want)
				}
				b, err := sys.SavePlan(p)
				if err != nil {
					t.Fatal(err)
				}
				h.Write(b)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("PlanCached bytes hash to %s, want %s", got, want)
	}
}

// TestAlphaResolvedOnce checks that Plan, PlanCached and NewFinetuner share
// one α rule: an α outside [0,1] fails the same way on all three, and α 0
// plans the bytes of the paper's 0.75.
func TestAlphaResolvedOnce(t *testing.T) {
	sys, err := New("vgg16", fourProviders(), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	entries := []struct {
		name string
		plan func(PlanConfig) (*Plan, error)
	}{
		{"Plan", sys.Plan},
		{"PlanCached", func(cfg PlanConfig) (*Plan, error) {
			p, _, err := sys.PlanCached(cfg, NewPlanCache(0))
			return p, err
		}},
		{"NewFinetuner", func(cfg PlanConfig) (*Plan, error) {
			_, p, err := sys.NewFinetuner(cfg)
			return p, err
		}},
	}
	for _, e := range entries {
		for _, alpha := range []float64{-0.5, 1.5, math.NaN()} {
			_, err := e.plan(PlanConfig{Alpha: alpha, Effort: EffortTiny})
			if want := fmt.Sprintf("distredge: alpha %g outside [0,1]", alpha); err == nil || err.Error() != want {
				t.Errorf("%s with alpha %g: error %v, want %q", e.name, alpha, err, want)
			}
		}
		var saved [2][]byte
		for i, alpha := range []float64{0, 0.75} {
			p, err := e.plan(PlanConfig{Alpha: alpha, Effort: EffortTiny})
			if err != nil {
				t.Fatalf("%s with alpha %g: %v", e.name, alpha, err)
			}
			if saved[i], err = sys.SavePlan(p); err != nil {
				t.Fatal(err)
			}
		}
		if string(saved[0]) != string(saved[1]) {
			t.Errorf("%s: alpha 0 plans other bytes than alpha 0.75", e.name)
		}
	}
}

// TestPlanCacheRunsLCPSSOncePerKey counts LC-PSS searches: two fleets of one
// model and size share the first one's search, and a fresh cache searches
// again — the memo lives and dies with its PlanCache.
func TestPlanCacheRunsLCPSSOncePerKey(t *testing.T) {
	cfg := PlanConfig{Effort: EffortTiny}
	plan := func(pc *PlanCache, bw float64) string {
		t.Helper()
		sys, err := New("vgg16", []Provider{{"xavier", bw}, {"nano", bw}, {"nano", bw}}, WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		p, _, err := sys.PlanCached(cfg, pc)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sys.SavePlan(p)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	pc := NewPlanCache(0)
	first := plan(pc, 100)
	plan(pc, 300)
	if n := pc.lcpss.Searches(); n != 1 {
		t.Errorf("two fleets of one model and size ran LC-PSS %d times, want 1", n)
	}
	fresh := NewPlanCache(0)
	if plan(fresh, 100) != first {
		t.Error("a fresh cache planned other bytes for the same fleet")
	}
	if n := fresh.lcpss.Searches(); n != 1 {
		t.Errorf("a fresh cache ran LC-PSS %d times for its first plan, want 1", n)
	}
	if n := pc.lcpss.Searches(); n != 1 {
		t.Errorf("planning through a fresh cache ran LC-PSS in the old one (%d searches)", n)
	}
}

// TestPlanCachedConcurrent plans eight requests at once through one cache
// (run it under -race): four models under two objectives, so no plan can
// warm-start another and every plan must be the one a fresh cache makes.
// The two objectives of a model share its LC-PSS key: four keys, searched
// once each unless both objectives miss it at once. They share the model's
// System too, whose first PlanCached derives the fleet signature both read.
func TestPlanCachedConcurrent(t *testing.T) {
	type req struct {
		model string
		obj   Objective
	}
	var reqs []req
	for _, model := range []string{"vgg16", "resnet50", "yolov2", "inceptionv3"} {
		for _, obj := range []Objective{ObjectiveLatency, ObjectiveIPS} {
			reqs = append(reqs, req{model, obj})
		}
	}
	system := func(model string) *System {
		sys, err := New(model, []Provider{{"xavier", 200}, {"tx2", 100}}, WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	plan := func(sys *System, pc *PlanCache, r req) (string, error) {
		p, _, err := sys.PlanCached(PlanConfig{Effort: EffortTiny, Objective: r.obj}, pc)
		if err != nil {
			return "", err
		}
		b, err := sys.SavePlan(p)
		return string(b), err
	}
	want := make([]string, len(reqs))
	for i, r := range reqs {
		var err error
		if want[i], err = plan(system(r.model), NewPlanCache(0), r); err != nil {
			t.Fatal(err)
		}
	}
	systems := make(map[string]*System)
	for _, r := range reqs {
		if systems[r.model] == nil {
			systems[r.model] = system(r.model)
		}
	}
	pc := NewPlanCache(0)
	got := make([]string, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i, r := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = plan(systems[r.model], pc, r)
		}()
	}
	wg.Wait()
	for i, r := range reqs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("%s/%s: the concurrent plan differs from a fresh cache's", r.model, r.obj)
		}
	}
	if n := pc.lcpss.Searches(); n < 4 || n > len(reqs) {
		t.Errorf("%d LC-PSS searches for four keys, want 4 to %d", n, len(reqs))
	}
}

// TestPlanCachedHitAllocs counts what a warmed PlanCached hit allocates.
// The fleet's signature is derived on the first call and kept by the
// System, the key (objective and planner identity included) is rendered on
// the stack and looked up without building a string, and no
// plancache.Service, in-flight map or channel is built. What is left is the
// caller's copy of the plan and the config's resolution:
//
//   - the returned *Plan;
//   - its Strategy clone (strategy.Clone): the *Strategy, its Boundaries,
//     its Splits rows and the one array that backs every row;
//   - the effort's budget, whose Hidden sizes the planner would read on a
//     miss and the key renders (experiments.Tiny);
//
// and under the ips objective, two more:
//
//   - the sim.ThroughputObjective boxed into a sim.Objective;
//   - the method name, "DistrEdge-ips".
func TestPlanCachedHitAllocs(t *testing.T) {
	for _, c := range []struct {
		obj  Objective
		want float64
	}{{ObjectiveLatency, 6}, {ObjectiveIPS, 8}} {
		sys, err := New("vgg16", fourProviders(), WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		cfg := PlanConfig{Effort: EffortTiny, Objective: c.obj}
		pc := NewPlanCache(0)
		if _, out, err := sys.PlanCached(cfg, pc); err != nil || out != PlanCold {
			t.Fatalf("%s: first plan %q, %v; want cold", c.obj, out, err)
		}
		got := testing.AllocsPerRun(100, func() {
			if _, out, err := sys.PlanCached(cfg, pc); err != nil || out != PlanHit {
				t.Fatalf("%s: warmed plan %q, %v; want a hit", c.obj, out, err)
			}
		})
		if got != c.want {
			t.Errorf("%s: a PlanCached hit allocates %v objects, want %v", c.obj, got, c.want)
		}
	}
}

// TestPlanCachedKeyCoversEveryInput: a plan is a function of its request,
// not of what the cache was asked before. Each row plans one request into a
// cache shared by every row of its model, then asks that cache for the
// request with one input perturbed: a PlanConfig field, or the System's
// seed (WithSeed). The perturbed request must return the bytes a fresh
// cache returns for it. The first twelve rows are four models × {quick
// effort, α 0.3, seed 7} from a tiny-effort plan; the rest perturb the
// objective fields. Every PlanConfig field must be perturbed by some row,
// or be listed in notDeciding with the reason it does not decide a plan,
// so a field added later fails here until it is keyed.
func TestPlanCachedKeyCoversEveryInput(t *testing.T) {
	// notDeciding maps a PlanConfig field to why it does not decide a
	// plan. Every field decides one today.
	notDeciding := map[string]string{}
	fleet := []Provider{
		{Type: "xavier", BandwidthMbps: 100},
		{Type: "tx2", BandwidthMbps: 50},
		{Type: "nano", BandwidthMbps: 200},
		{Type: "nano", BandwidthMbps: 100},
	}
	with := func(c PlanConfig, f func(*PlanConfig)) PlanConfig { f(&c); return c }
	tiny := PlanConfig{Effort: EffortTiny}
	ips := with(tiny, func(c *PlanConfig) { c.Objective = ObjectiveIPS })
	slo := with(tiny, func(c *PlanConfig) { c.Objective, c.SLOP95MS = ObjectiveSLO, 500 })
	type row struct {
		model        string
		from, to     PlanConfig
		seedA, seedB int64
	}
	var rows []row
	for _, m := range []string{"vgg16", "resnet50", "yolov2", "inceptionv3"} {
		rows = append(rows,
			row{m, tiny, with(tiny, func(c *PlanConfig) { c.Effort = EffortQuick }), 1, 1},
			row{m, tiny, with(tiny, func(c *PlanConfig) { c.Alpha = 0.3 }), 1, 1},
			row{m, tiny, tiny, 1, 7})
	}
	rows = append(rows,
		row{"vgg16", tiny, ips, 1, 1},
		row{"vgg16", ips, with(ips, func(c *PlanConfig) { c.ObjectiveWindow = 2 }), 1, 1},
		row{"vgg16", ips, with(ips, func(c *PlanConfig) { c.ObjectiveBatch = 2 }), 1, 1},
		row{"vgg16", slo, with(slo, func(c *PlanConfig) { c.SLOP95MS = 800 }), 1, 1})

	typ := reflect.TypeOf(PlanConfig{})
	perturbed := map[string]bool{}
	for _, r := range rows {
		var moved []string
		a, b := reflect.ValueOf(r.from), reflect.ValueOf(r.to)
		for i := 0; i < typ.NumField(); i++ {
			if !reflect.DeepEqual(a.Field(i).Interface(), b.Field(i).Interface()) {
				moved = append(moved, typ.Field(i).Name)
			}
		}
		if len(moved) > 1 || (len(moved) == 1) == (r.seedA != r.seedB) {
			t.Fatalf("row %+v moves %v and the seed %v: want one input at a time", r, moved, r.seedA != r.seedB)
		}
		for _, f := range moved {
			perturbed[f] = true
		}
	}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if _, ok := notDeciding[name]; !perturbed[name] && !ok {
			t.Errorf("PlanConfig.%s is perturbed by no row: key it and add a row, or list it in notDeciding with a reason", name)
		}
	}

	system := func(model string, seed int64) *System {
		sys, err := New(model, fleet, WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	plan := func(sys *System, cfg PlanConfig, pc *PlanCache) (string, PlanOutcome) {
		p, out, err := sys.PlanCached(cfg, pc)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sys.SavePlan(p)
		if err != nil {
			t.Fatal(err)
		}
		return string(b), out
	}
	shared := map[string]*PlanCache{}
	for _, r := range rows {
		pc := shared[r.model]
		if pc == nil {
			pc = NewPlanCache(0)
			shared[r.model] = pc
		}
		plan(system(r.model, r.seedA), r.from, pc)
		sys := system(r.model, r.seedB)
		got, out := plan(sys, r.to, pc)
		want, _ := plan(sys, r.to, NewPlanCache(0))
		if got != want {
			t.Errorf("%s: %+v (seed %d) after %+v (seed %d): the shared cache's %s plan differs from a fresh cache's",
				r.model, r.to, r.seedB, r.from, r.seedA, out)
		}
	}
}
