package distredge

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"distredge/internal/experiments"
	"distredge/internal/runtime"
	"distredge/internal/sim"
	"distredge/internal/splitter"
	"distredge/internal/strategy"
)

func fourProviders() []Provider {
	return []Provider{
		{Type: "xavier", BandwidthMbps: 200},
		{Type: "xavier", BandwidthMbps: 200},
		{Type: "nano", BandwidthMbps: 200},
		{Type: "nano", BandwidthMbps: 200},
	}
}

func TestModelsAndBaselines(t *testing.T) {
	if len(Models()) != 8 {
		t.Errorf("Models = %v", Models())
	}
	if len(Baselines()) != 7 {
		t.Errorf("Baselines = %v", Baselines())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("nope", fourProviders()); err == nil {
		t.Error("unknown model must error")
	}
	if _, err := New("vgg16", nil); err == nil {
		t.Error("empty providers must error")
	}
	if _, err := New("vgg16", []Provider{{Type: "abacus", BandwidthMbps: 10}}); err == nil {
		t.Error("unknown device type must error")
	}
	if _, err := New("vgg16", []Provider{{Type: "nano", BandwidthMbps: 0}}); err == nil {
		t.Error("zero bandwidth must error")
	}
}

func TestPlanEvaluateRoundTrip(t *testing.T) {
	sys, err := New("vgg16", fourProviders(), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sys.Plan(PlanConfig{Effort: EffortTiny})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Evaluate(plan, 50)
	if err != nil {
		t.Fatal(err)
	}
	if rep.IPS <= 0 || rep.Volumes < 1 {
		t.Fatalf("bad report %+v", rep)
	}
	desc := plan.Describe("vgg16")
	if !strings.Contains(desc, "DistrEdge") || !strings.Contains(desc, "volume 0") {
		t.Errorf("Describe output unexpected: %s", desc)
	}
}

func TestPlanBeatsWorstBaseline(t *testing.T) {
	sys, err := New("vgg16", fourProviders(), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sys.Plan(PlanConfig{Effort: EffortTiny})
	if err != nil {
		t.Fatal(err)
	}
	de, err := sys.Evaluate(plan, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Baselines() {
		bp, err := sys.Baseline(name)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.Evaluate(bp, 50)
		if err != nil {
			t.Fatal(err)
		}
		if de.IPS < rep.IPS*0.95 {
			t.Errorf("DistrEdge %.2f IPS below baseline %s %.2f IPS", de.IPS, name, rep.IPS)
		}
	}
}

func TestBaselineUnknown(t *testing.T) {
	sys, _ := New("vgg16", fourProviders())
	if _, err := sys.Baseline("Magic"); err == nil {
		t.Error("unknown baseline must error")
	}
}

func TestEffortValidation(t *testing.T) {
	sys, _ := New("vgg16", fourProviders())
	if _, err := sys.Plan(PlanConfig{Effort: Effort("weird")}); err == nil {
		t.Error("unknown effort must error")
	}
}

func TestDeployOverTCP(t *testing.T) {
	sys, err := New("vgg16", fourProviders(), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sys.Baseline("DeeperThings")
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := sys.Deploy(plan, runtime.Options{TimeScale: 0.002, BytesScale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	stats, err := cluster.Serve(sim.Scenario{Tenants: []sim.TenantSpec{{Images: 3}}, Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.IPS <= 0 {
		t.Fatal("deployed run produced no throughput")
	}
}

// TestFinetunerContinuesOnDynamicTraces: a finetuner trained on the
// dynamic traces trains further episodes on the same environment and
// returns a plan the system can evaluate.
func TestFinetunerContinuesOnDynamicTraces(t *testing.T) {
	sys, err := New("vgg16", []Provider{
		{Type: "nano", BandwidthMbps: 100},
		{Type: "nano", BandwidthMbps: 100},
		{Type: "nano", BandwidthMbps: 100},
		{Type: "nano", BandwidthMbps: 100},
	}, WithSeed(9), WithDynamicNetwork())
	if err != nil {
		t.Fatal(err)
	}
	ft, plan, err := sys.NewFinetuner(PlanConfig{Effort: EffortTiny})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Strategy == nil {
		t.Fatal("no initial strategy")
	}
	p2, err := ft.Finetune(5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Evaluate(p2, 20); err != nil {
		t.Fatal(err)
	}
}

// TestFinetunerTrainsThePlannersAgent: NewFinetuner builds its trainer from
// the planner's own LC-PSS and OSDS configuration, so under the default
// objective, at an effort whose Plan trains (full), its initial plan is
// Plan's; and a throughput objective is trained for (and labelled) instead
// of silently returning the latency plan.
func TestFinetunerTrainsThePlannersAgent(t *testing.T) {
	sys, err := New("vgg16", fourProviders(), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := PlanConfig{Effort: EffortFull}
	want, err := sys.Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := sys.NewFinetuner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Method != want.Method || !reflect.DeepEqual(got.Strategy, want.Strategy) {
		t.Errorf("latency finetuner starts from\n%s\nPlan gives\n%s", got.Describe("vgg16"), want.Describe("vgg16"))
	}

	cfg = PlanConfig{Effort: EffortTiny, Objective: ObjectiveIPS}
	ft, plan, err := sys.NewFinetuner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Method != "DistrEdge-ips" {
		t.Errorf("ips finetuner labels its plan %q, want DistrEdge-ips", plan.Method)
	}
	// The trainer's best score is in its objective's unit: steady-state
	// seconds per image at the objective's window, not one image's latency
	// (episodes are scored along the trace, Score at its start: near, not equal).
	_, trained := ft.trainer.Best()
	ips, err := sys.Score(plan, ObjectiveIPS, 0)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := sys.Score(plan, ObjectiveLatency, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(trained-ips) > 0.05*ips || math.Abs(trained-lat) < 0.1*lat {
		t.Errorf("trainer's best score %g: want the throughput score %g, not the latency %g", trained, ips, lat)
	}
	if p2, err := ft.Finetune(3); err != nil || p2.Method != "DistrEdge-ips" {
		t.Errorf("Finetune = %+v, %v; want a DistrEdge-ips plan", p2, err)
	}
}

func TestDescribeModel(t *testing.T) {
	s, err := DescribeModel("yolov2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "yolov2") || !strings.Contains(s, "conv1") {
		t.Errorf("summary missing content: %q", s[:80])
	}
	if _, err := DescribeModel("nope"); err == nil {
		t.Error("unknown model must error")
	}
}

func TestTimelineRendering(t *testing.T) {
	sys, err := New("vgg16", fourProviders(), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sys.Baseline("DeeperThings")
	if err != nil {
		t.Fatal(err)
	}
	gantt, err := sys.Timeline(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(gantt, "dev  0") || !strings.Contains(gantt, "total") {
		t.Errorf("gantt missing content:\n%s", gantt)
	}
}

func TestSaveLoadPlan(t *testing.T) {
	sys, err := New("vgg16", fourProviders(), WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sys.Baseline("AOFL")
	if err != nil {
		t.Fatal(err)
	}
	data, err := sys.SavePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	back, err := sys.LoadPlan(data)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.Evaluate(plan, 30)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Evaluate(back, 30)
	if err != nil {
		t.Fatal(err)
	}
	if a.IPS != b.IPS {
		t.Errorf("loaded plan performs differently: %g vs %g", a.IPS, b.IPS)
	}
	// A plan saved for vgg16 must not load into a resnet50 system.
	other, err := New("resnet50", fourProviders())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.LoadPlan(data); err == nil {
		t.Error("cross-model plan load must fail")
	}
}

// FuzzLoadPlan feeds LoadPlan arbitrary documents. Whatever it accepts must
// compile to a geometry the simulator and the runtime can deploy, and must
// survive SavePlan and LoadPlan again unchanged.
func FuzzLoadPlan(f *testing.F) {
	sys, err := New("vgg16", fourProviders(), WithSeed(6))
	if err != nil {
		f.Fatal(err)
	}
	plan, err := sys.Baseline("AOFL")
	if err != nil {
		f.Fatal(err)
	}
	saved, err := sys.SavePlan(plan)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(saved)
	f.Add([]byte(`{"version":1,"boundaries":[0,18],"splits":[[0,0,7]]}`))
	f.Add([]byte(`{"version":1,"model":"vgg16","boundaries":[0,4,18],"splits":[[28,56,84],[2,4,6]]}`))
	f.Add([]byte(`{"version":1,"boundaries":[0,18],"splits":[[300,-1,5]]}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := sys.LoadPlan(data)
		if err != nil {
			return
		}
		if _, err := strategy.CompileGeometry(sys.env.Model, p.Strategy, sys.env.NumProviders()); err != nil {
			t.Fatalf("LoadPlan accepted %q but CompileGeometry rejects it: %v", data, err)
		}
		again, err := sys.SavePlan(p)
		if err != nil {
			t.Fatalf("SavePlan of a loaded plan: %v", err)
		}
		back, err := sys.LoadPlan(again)
		if err != nil {
			t.Fatalf("LoadPlan rejects SavePlan's own output %q: %v", again, err)
		}
		if !slices.Equal(back.Strategy.Boundaries, p.Strategy.Boundaries) ||
			!slices.EqualFunc(back.Strategy.Splits, p.Strategy.Splits, slices.Equal[[]int]) {
			t.Fatalf("round trip changed the strategy: %+v -> %+v", p.Strategy, back.Strategy)
		}
		if last, err := sys.SavePlan(back); err != nil || !bytes.Equal(last, again) {
			t.Fatalf("SavePlan is not a fixed point: %q -> %q (%v)", again, last, err)
		}
	})
}

// TestEvaluatePipelinedOptsBatch pins both readings of the batch argument:
// 1 (or negative) is no batching, bit-identical to Serve of the one-tenant
// scenario with Batch 1, and 0 is the adaptive cap runtime.Options.Batch means by it — a cap no batch
// can reach — which serves a queueing plan faster than no batching.
func TestEvaluatePipelinedOptsBatch(t *testing.T) {
	sys, err := New("vgg16", fourProviders(), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sys.Baseline("CoEdge")
	if err != nil {
		t.Fatal(err)
	}
	const images, window = 60, 4
	eval := func(batch int) PipelineReport {
		t.Helper()
		rep, err := sys.EvaluatePipelinedOpts(plan, images, window, batch, 0)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	res, err := sys.Serve(plan, sim.Scenario{Tenants: []sim.TenantSpec{{Images: images}}, Window: window, Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	plain := PipelineReport{Window: res.Window, IPS: res.IPS, SteadyIPS: res.SteadyIPS, MeanLatMS: res.MeanLatMS, P95LatMS: res.P95LatMS}
	if eval(1) != plain || eval(-1) != plain {
		t.Errorf("batch 1 / -1 must be Serve with Batch 1 exactly: %+v / %+v vs %+v", eval(1), eval(-1), plain)
	}
	if adaptive := eval(0); adaptive != eval(images) || adaptive.IPS <= plain.IPS {
		t.Errorf("batch 0 must be the adaptive cap: %+v, unreachable cap %+v, unbatched %+v", adaptive, eval(images), plain)
	}
}

// TestServeChurn drops a provider half-way through a pipelined stream:
// with recovery every image completes after one re-plan, without it the
// stream is truncated at the drop, and an unknown event kind is refused.
func TestServeChurn(t *testing.T) {
	sys, err := New("vgg16", fourProviders(), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sys.Baseline("CoEdge")
	if err != nil {
		t.Fatal(err)
	}
	sc := sim.Scenario{Tenants: []sim.TenantSpec{{Images: 40}}, Window: 4, Batch: 1}
	base, err := sys.Serve(plan, sc)
	if err != nil {
		t.Fatal(err)
	}
	failAt := 0.5 * float64(40) / base.IPS
	sc.Events = []sim.ChurnEvent{{Kind: sim.DeviceDrop, Device: 0, At: failAt}}
	sc.ChurnOptions = sim.ChurnOptions{ReplanSec: experiments.ChurnReplanChargeSec, Replan: splitter.BalancedReplan}
	on, err := sys.Serve(plan, sc)
	if err != nil {
		t.Fatal(err)
	}
	if on.Completed != 40 || on.Recoveries != 1 || on.FailedAtSec >= 0 {
		t.Fatalf("recovered churn report wrong: %+v", on)
	}
	sc.Replan = nil
	off, err := sys.Serve(plan, sc)
	if err != nil {
		t.Fatal(err)
	}
	if off.Completed >= 40 || off.Failed == 0 || off.FailedAtSec != failAt {
		t.Fatalf("truncated churn report wrong: %+v", off)
	}
	sc.Events = []sim.ChurnEvent{{Kind: sim.ChurnKind(7), Device: 0, At: 1}}
	if _, err := sys.Serve(plan, sc); err == nil {
		t.Error("unknown event kind must error")
	}
}

// TestPlanCachedHitAndChurnReplan covers the public plan-cache surface:
// the second PlanCached for an identical system is an exact hit returning
// an equivalent plan without re-searching, the cache counters read
// consistently, and the cached re-planner, as a Scenario's Replan, drives
// Serve through a recovery.
func TestPlanCachedHitAndChurnReplan(t *testing.T) {
	cache := NewPlanCache(0)
	cfg := PlanConfig{Effort: EffortTiny}
	sys, err := New("vgg16", fourProviders(), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	cold, out, err := sys.PlanCached(cfg, cache)
	if err != nil {
		t.Fatal(err)
	}
	if out != PlanCold {
		t.Fatalf("first planning outcome = %q, want %q", out, PlanCold)
	}
	// A fresh System over the same fleet must key to the same signature.
	sys2, err := New("vgg16", fourProviders(), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	hit, out, err := sys2.PlanCached(cfg, cache)
	if err != nil {
		t.Fatal(err)
	}
	if out != PlanHit {
		t.Fatalf("repeat planning outcome = %q, want %q", out, PlanHit)
	}
	if got, want := hit.Describe("vgg16"), cold.Describe("vgg16"); got != want {
		t.Fatalf("cached plan differs from the planned one:\n%s\nvs\n%s", got, want)
	}
	// The returned plan is the caller's: mutating it must not poison the cache.
	hit.Strategy.Splits[0][0]++
	again, out, err := sys.PlanCached(cfg, cache)
	if err != nil {
		t.Fatal(err)
	}
	if out != PlanHit || again.Describe("vgg16") != cold.Describe("vgg16") {
		t.Fatal("cache entry mutated through a returned plan")
	}
	st := cache.Stats()
	if st.Entries != 1 || st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("cache stats = %+v, want 1 entry, 2 hits, 1 miss", st)
	}

	// Cached recovery re-planning through the public churn evaluator.
	replan, err := cache.CachedReplan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Serve(cold, sim.Scenario{
		Tenants: []sim.TenantSpec{{Images: 40}}, Window: 4, Batch: 1,
		Events:       []sim.ChurnEvent{{Kind: sim.DeviceDrop, Device: 0, At: 0.2}},
		ChurnOptions: sim.ChurnOptions{ReplanSec: experiments.ChurnReplanChargeSec, Replan: replan},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 40 || rep.Recoveries != 1 {
		t.Fatalf("cached-replan churn report wrong: %+v", rep)
	}
	if cache.Stats().Entries < 2 {
		t.Error("recovery re-plan did not cache the survivor-fleet plan")
	}
}
