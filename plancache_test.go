package distredge

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
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
	const want = "ae2b7b7935232e63f5871919d7299ff548392921b59999f0bd5f99eec15179ca"
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
// System, the key is rendered on the stack and looked up without building a
// string, and no plancache.Service, in-flight map or channel is built. What
// is left is the caller's copy of the plan and the config's resolution:
//
//   - the returned *Plan;
//   - its Strategy clone (strategy.Clone): the *Strategy, its Boundaries,
//     its Splits rows and the one array that backs every row;
//   - the effort's budget, whose Hidden sizes the planner would read on a
//     miss (experiments.Tiny);
//
// and under the ips objective, three more:
//
//   - the sim.ThroughputObjective boxed into a sim.Objective;
//   - its plan-cache key, "ips/w4/i24/b1" (plancache.ObjectiveKey);
//   - the method name, "DistrEdge-ips".
func TestPlanCachedHitAllocs(t *testing.T) {
	for _, c := range []struct {
		obj  Objective
		want float64
	}{{ObjectiveLatency, 6}, {ObjectiveIPS, 9}} {
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
