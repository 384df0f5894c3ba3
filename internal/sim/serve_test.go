package sim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"distredge/internal/device"
	"distredge/internal/strategy"
)

// TestServeWFQImprovesSmallTenantP95 is the offline half of the
// tentpole's differential criterion: a small high-weight tenant sharing
// the fleet with a heavy tenant's burst must see a strictly better p95
// under weighted fair queueing than under FIFO (where the burst runs
// first), while the whole stream's rate stays comparable.
func TestServeWFQImprovesSmallTenantP95(t *testing.T) {
	env := equivEnv(t, true)
	s := equivStrategies(env.Model, env.NumProviders())[0]
	tenants := []TenantSpec{
		{Name: "heavy", Images: 16, Weight: 1},
		{Name: "small", Images: 4, Weight: 4},
	}
	fifo, err := env.Serve(s, Scenario{Tenants: tenants, Policy: AdmitFIFO, Window: 4, Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	wfq, err := env.Serve(s, Scenario{Tenants: tenants, Policy: AdmitWFQ, Window: 4, Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	fifoSmall := fifo.Tenants[1].P95LatMS
	wfqSmall := wfq.Tenants[1].P95LatMS
	if !(wfqSmall < fifoSmall) {
		t.Errorf("small tenant p95: wfq %.1fms must beat fifo %.1fms", wfqSmall, fifoSmall)
	}
	// Work conservation: the policies reorder the same requests over the
	// same resources, so the whole stream finishes at a comparable rate.
	if wfq.IPS < 0.5*fifo.IPS {
		t.Errorf("wfq IPS %.3f collapsed vs fifo %.3f — reordering must not destroy throughput", wfq.IPS, fifo.IPS)
	}
	// And the heavy tenant keeps its full request count.
	if wfq.Tenants[0].Images != 16 || fifo.Tenants[0].Images != 16 {
		t.Errorf("heavy tenant image counts: wfq %d fifo %d, want 16", wfq.Tenants[0].Images, fifo.Tenants[0].Images)
	}
}

// TestServeLateEnqueueWaits pins the arrival model: a tenant whose
// burst arrives after the stream start is not admitted before it, and its
// latencies are measured from ITS enqueue, not the stream start — a burst
// landing on an idle pipeline sees solo latency regardless of how late it
// arrived.
func TestServeLateEnqueueWaits(t *testing.T) {
	env := equivEnv(t, true)
	s := equivStrategies(env.Model, env.NumProviders())[0]
	solo, err := env.Serve(s, Scenario{Tenants: []TenantSpec{{Name: "solo", Images: 1}}, Policy: AdmitFIFO, Window: 2, Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	early, err := env.Serve(s, Scenario{Tenants: []TenantSpec{{Name: "early", Images: 2}}, Policy: AdmitFIFO, Window: 2, Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Enqueue the late burst after the early one has fully drained: the
	// pipeline is idle, so the late tenant's first request must complete in
	// exactly the solo single-image latency despite arriving mid-stream.
	gap := early.TotalSec + 1
	res, err := env.Serve(s, Scenario{
		Tenants: []TenantSpec{
			{Name: "early", Images: 2},
			{Name: "late", Images: 1, EnqueueSec: gap},
		},
		Window: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	late := res.Tenants[1]
	if late.Images != 1 {
		t.Fatalf("late tenant served %d of 1", late.Images)
	}
	if late.PerImageSec[0] != solo.Tenants[0].PerImageSec[0] {
		t.Errorf("late tenant on an idle pipeline: latency %.17g != solo %.17g — enqueue offset leaked into the measurement",
			late.PerImageSec[0], solo.Tenants[0].PerImageSec[0])
	}
	if res.TotalSec < gap {
		t.Errorf("stream finished in %.3fs, before the late burst at %.3fs arrived", res.TotalSec, gap)
	}
}

// TestServeValidation covers the config error paths.
func TestServeValidation(t *testing.T) {
	env := equivEnv(t, true)
	s := equivStrategies(env.Model, env.NumProviders())[0]
	cases := []struct {
		name string
		cfg  Scenario
		want string
	}{
		{"no tenants", Scenario{Window: 4}, "at least one tenant"},
		{"bad window", Scenario{Tenants: []TenantSpec{{Images: 1}}, Window: 0}, "window must be >= 1"},
		{"bad policy", Scenario{Tenants: []TenantSpec{{Images: 1}}, Window: 1, Policy: "lifo"}, "unknown admission policy"},
		{"no images", Scenario{Tenants: []TenantSpec{{Images: 0}}, Window: 1}, "at least one image"},
		{"negative enqueue", Scenario{Tenants: []TenantSpec{{Images: 1, EnqueueSec: -1}}, Window: 1}, "negative"},
		{"NaN enqueue", Scenario{Tenants: []TenantSpec{{Images: 1, EnqueueSec: math.NaN()}}, Window: 1}, "enqueue time NaN is not finite"},
		{"infinite enqueue", Scenario{Tenants: []TenantSpec{{Images: 1, EnqueueSec: math.Inf(1)}}, Window: 1}, "enqueue time +Inf is not finite"},
		{"NaN event time", Scenario{Tenants: []TenantSpec{{Images: 1}}, Window: 1,
			Events: []ChurnEvent{{At: math.NaN(), Kind: DeviceDrop, Device: 0}}}, "device 0: time is not a number"},
		{"out-of-range event device", Scenario{Tenants: []TenantSpec{{Images: 1}}, Window: 1,
			Events: []ChurnEvent{{At: 1, Kind: DeviceDrop, Device: 99}}}, "device 99 out of range"},
		{"unknown event kind", Scenario{Tenants: []TenantSpec{{Images: 1}}, Window: 1,
			Events: []ChurnEvent{{At: 1, Kind: ChurnKind(7), Device: 0}}}, "unknown churn kind"},
		{"infinite slow factor", Scenario{Tenants: []TenantSpec{{Images: 1}}, Window: 1,
			Events: []ChurnEvent{{At: 1, Kind: DeviceSlow, Device: 0, Factor: math.Inf(1)}}}, "positive, finite factor"},
		{"bad wire", Scenario{Tenants: []TenantSpec{{Images: 1}}, Window: 1, WireFrac: -0.5}, "wire fraction"},
		// Weights with no finite share: under WFQ the tenant would be served
		// always or never (NaN key), for free (1/Inf), or once (1/1e-320 = +Inf).
		{"NaN weight", Scenario{Tenants: []TenantSpec{{Images: 1, Weight: math.NaN()}}, Window: 1}, "no finite share"},
		{"infinite weight", Scenario{Tenants: []TenantSpec{{Images: 1, Weight: math.Inf(1)}}, Window: 1, Policy: AdmitWFQ}, "no finite share"},
		{"denormal weight", Scenario{Tenants: []TenantSpec{{Images: 1, Weight: 1e-320}}, Window: 1, Policy: AdmitWFQ}, "no finite share"},
	}
	for _, c := range cases {
		if _, err := env.Serve(s, c.cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
}

// TestPipelineStreamSingleImageSteady covers the n=1 stream end to end:
// with one image there is no second half to rate, so SteadyIPS must fall
// back to the overall IPS instead of dividing by a zero span.
func TestPipelineStreamSingleImageSteady(t *testing.T) {
	env := equivEnv(t, true)
	s := equivStrategies(env.Model, env.NumProviders())[0]
	res, err := env.Serve(s, oneTenant(1, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.SteadyIPS != res.IPS {
		t.Errorf("single-image stream: SteadyIPS %.17g != IPS %.17g", res.SteadyIPS, res.IPS)
	}
	if res.IPS <= 0 {
		t.Errorf("single-image stream: IPS %g must be positive", res.IPS)
	}
}

// TestServeReportsModelledBatch: the result names the batching the devices
// were modelled with, with or without fleet events (the churn engine Serve
// replaced reported the adaptive 0 for its batch-1 replay).
func TestServeReportsModelledBatch(t *testing.T) {
	env := testEnv(200, device.Xavier, device.Nano, device.TX2, device.Nano)
	s := stageStrategy(env.Model, []int{0, 10, 14, 18}, 4)
	for _, c := range []struct{ batch, want int }{{1, 1}, {0, 0}, {4, 4}, {-1, 1}} {
		sc := oneTenant(20, 4, 0)
		sc.Batch = c.batch
		sc.Events = []ChurnEvent{{At: 0.5, Kind: DeviceDrop, Device: 1}}
		sc.Replan = shareReplan
		res, err := env.Serve(s, sc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Batch != c.want || res.Requeued == 0 {
			t.Errorf("Batch %d under churn: result Batch %d (want %d), requeued %d", c.batch, res.Batch, c.want, res.Requeued)
		}
	}
}

// TestServeReplanChangesVolumeCount: the batching state is strided by the
// plan's volume count, so a re-plan that changes the boundaries must
// re-size it and an open batch must not survive the plan change. An event
// before the first admission that swaps in a strategy of a different shape
// must therefore serve exactly as that strategy does from the start.
func TestServeReplanChangesVolumeCount(t *testing.T) {
	env := testEnv(200, device.Xavier, device.Nano, device.TX2, device.Nano)
	shapes := equivStrategies(env.Model, env.NumProviders())
	one, many := shapes[0], shapes[1] // single volume, layer by layer
	for _, batch := range []int{0, 4} {
		for _, c := range []struct{ from, to *strategy.Strategy }{{one, many}, {many, one}} {
			sc := Scenario{Tenants: []TenantSpec{{Images: 24}}, Window: 6, Batch: batch}
			want, err := env.Serve(c.to, sc)
			if err != nil {
				t.Fatal(err)
			}
			sc.Events = []ChurnEvent{{At: 0, Kind: DeviceSlow, Device: 0, Factor: 1}}
			sc.Replan = func(*Env, *strategy.Strategy, []bool) (*strategy.Strategy, error) { return c.to, nil }
			got, err := env.Serve(c.from, sc)
			if err != nil {
				t.Fatal(err)
			}
			if got.Recoveries != 1 || !reflect.DeepEqual(got.PerImageSec, want.PerImageSec) || got.TotalSec != want.TotalSec {
				t.Errorf("batch %d, %d -> %d volumes: re-planned run diverges from serving the new plan directly (total %.17g vs %.17g)",
					batch, c.from.NumVolumes(), c.to.NumVolumes(), got.TotalSec, want.TotalSec)
			}
			// And mid-stream, with batches open: every image exactly once.
			sc.Events[0].At = want.TotalSec / 2
			mid, err := env.Serve(c.from, sc)
			if err != nil {
				t.Fatal(err)
			}
			if mid.Completed != 24 || mid.Requeued == 0 {
				t.Errorf("batch %d mid-stream re-plan: completed %d of 24, requeued %d", batch, mid.Completed, mid.Requeued)
			}
		}
	}
}

// TestServeTenantWithNothingCommitted: an unrecovered drop can end the
// stream before a tenant queued behind a heavy burst was served at all; it
// reports zero images and zero statistics.
func TestServeTenantWithNothingCommitted(t *testing.T) {
	env := equivEnv(t, true)
	s := equivStrategies(env.Model, env.NumProviders())[0]
	sc := Scenario{
		Tenants: []TenantSpec{{Name: "heavy", Images: 20}, {Name: "late", Images: 4}},
		Window:  2, Batch: 1,
	}
	base, err := env.Serve(s, sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.Events = []ChurnEvent{{At: base.TotalSec * 0.2, Kind: DeviceDrop, Device: 0}}
	res, err := env.Serve(s, sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 || res.Completed+res.Failed != 24 || res.FailedAtSec != sc.Events[0].At {
		t.Fatalf("truncated stream accounting: %+v", res)
	}
	if late := res.Tenants[1]; late.Images != 0 || len(late.PerImageSec) != 0 ||
		late.MeanLatMS != 0 || late.P50LatMS != 0 || late.P95LatMS != 0 || late.MaxLatMS != 0 {
		t.Errorf("tenant with nothing committed must report zeros: %+v", late)
	}
	if res.Tenants[0].Images != res.Completed {
		t.Errorf("heavy tenant committed %d, stream %d", res.Tenants[0].Images, res.Completed)
	}
}

// TestServeComposes covers what no engine before Serve could model: step
// batching, a shrinking wire codec, several tenants under either policy and
// a drop-then-rejoin fleet script, all at once.
func TestServeComposes(t *testing.T) {
	env := testEnv(200, device.Xavier, device.Nano, device.TX2, device.Nano)
	s := stageStrategy(env.Model, []int{0, 10, 14, 18}, 4)
	tenants := []TenantSpec{{Name: "heavy", Images: 48}, {Name: "light", Images: 12, Weight: 4}}
	const images = 60
	for _, wire := range []float64{1, 0.25} {
		goodput := map[int]float64{}
		for _, batch := range []int{1, 0, 4} {
			lightP95 := map[string]float64{}
			for _, policy := range []string{AdmitFIFO, AdmitWFQ} {
				sc := Scenario{Tenants: tenants, Policy: policy, Window: 4, Batch: batch, WireFrac: wire}
				base, err := env.Serve(s, sc)
				if err != nil {
					t.Fatal(err)
				}
				sc.Events = []ChurnEvent{
					{At: base.TotalSec * 0.3, Kind: DeviceDrop, Device: 1},
					{At: base.TotalSec * 0.6, Kind: DeviceJoin, Device: 1},
				}
				off, err := env.Serve(s, sc)
				if err != nil {
					t.Fatal(err)
				}
				if off.Completed+off.Failed != images || off.Failed == 0 || off.FailedAtSec != sc.Events[0].At {
					t.Errorf("batch %d wire %g %s, recover off: completed %d failed %d at %g",
						batch, wire, policy, off.Completed, off.Failed, off.FailedAtSec)
				}
				sc.ChurnOptions = ChurnOptions{ReplanSec: 0.05, Replan: latencyReplan}
				on, err := env.Serve(s, sc)
				if err != nil {
					t.Fatal(err)
				}
				served := 0
				for _, tr := range on.Tenants {
					served += tr.Images
				}
				if on.Completed != images || on.Images != images || served != images || on.Failed != 0 {
					t.Errorf("batch %d wire %g %s: every image exactly once: completed %d, tenants served %d, failed %d",
						batch, wire, policy, on.Completed, served, on.Failed)
				}
				if on.Requeued == 0 || on.Recoveries != 2 || on.Batch != batch {
					t.Errorf("batch %d wire %g %s: requeued %d, recoveries %d, result batch %d",
						batch, wire, policy, on.Requeued, on.Recoveries, on.Batch)
				}
				lightP95[policy] = on.Tenants[1].P95LatMS
				goodput[batch] = on.IPS
			}
			if !(lightP95[AdmitWFQ] < lightP95[AdmitFIFO]) {
				t.Errorf("batch %d wire %g: light tenant p95 under churn: wfq %.1fms must beat fifo %.1fms",
					batch, wire, lightP95[AdmitWFQ], lightP95[AdmitFIFO])
			}
		}
		if goodput[0] < goodput[1] {
			t.Errorf("wire %g: adaptive batching goodput %.3f below unbatched %.3f under churn", wire, goodput[0], goodput[1])
		}
	}
}

// TestPipelineStreamOptsAllocs keeps the planner's hot path a count: the
// throughput objectives run PipelineStreamOpts' scenario once per OSDS
// episode, through Env.pipeline on the run state the memoized plan keeps.
// That path allocates nothing on a memoized plan, and PipelineStreamOpts
// only the PerImageSec it hands out.
func TestPipelineStreamOptsAllocs(t *testing.T) {
	env := testEnv(200, device.Xavier, device.Nano, device.TX2, device.Nano)
	s := stageStrategy(env.Model, []int{0, 10, 14, 18}, 4)
	for _, batch := range []int{1, 4} {
		cfg := PipelineConfig{Images: 64, Window: 4, Batch: batch}
		for _, c := range []struct {
			name string
			call func() error
			want float64
		}{
			{"PipelineStreamOpts", func() error { _, err := env.PipelineStreamOpts(s, cfg); return err }, 1},
			{"pipeline", func() error { _, err := env.pipeline(s, cfg, false); return err }, 0},
		} {
			got := testing.AllocsPerRun(20, func() {
				if err := c.call(); err != nil {
					t.Fatal(err)
				}
			})
			if got > c.want {
				t.Errorf("batch %d: %.0f allocations per %s call, want <= %.0f", batch, got, c.name, c.want)
			}
		}
	}
}

// TestCompileAllocs guards the count of a plan compiled from scratch: the
// first evaluation of every strategy the planner scores, such as each
// boundary set's warm-start and final strategies.
func TestCompileAllocs(t *testing.T) {
	env := testEnv(200, device.Xavier, device.Nano, device.TX2, device.Nano)
	s := stageStrategy(env.Model, []int{0, 10, 14, 18}, 4)
	got := testing.AllocsPerRun(20, func() {
		if _, err := Compile(env, s); err != nil {
			t.Fatal(err)
		}
	})
	if got > 20 {
		t.Errorf("%.0f allocations per Compile, want <= 20", got)
	}
}

// TestRecompileInPlace: a memoized plan whose strategy was rewritten in
// place — the OSDS trainer rewrites one strategy's cuts every episode — is
// recompiled into the same CompiledPlan without allocating, and replays,
// alone and pipelined, exactly as a fresh compile of the new contents.
func TestRecompileInPlace(t *testing.T) {
	env := testEnv(200, device.Xavier, device.Nano, device.TX2, device.Nano)
	b := []int{0, 10, 14, 18}
	stage, equal := stageStrategy(env.Model, b, 4), equalSplitStrategy(env.Model, b, 4)
	s := stage.Clone()
	rewrite := func(from *strategy.Strategy) {
		for v := range s.Splits {
			copy(s.Splits[v], from.Splits[v])
		}
	}
	first, err := env.checkoutPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	env.checkinPlan(first)
	cfg := PipelineConfig{Images: 24, Window: 4, Batch: 2}
	for _, from := range []*strategy.Strategy{equal, stage, equal} {
		rewrite(from)
		p, err := env.checkoutPlan(s)
		if err != nil {
			t.Fatal(err)
		}
		if p != first {
			t.Fatal("a rewritten strategy got a new plan, not its memoized one recompiled")
		}
		got, _ := p.run(1.5)
		env.checkinPlan(p)
		if want, _, _ := env.ReferenceLatency(from, 1.5); got != want {
			t.Errorf("recompiled plan replays %v, reference %v", got, want)
		}
		in, err := env.PipelineStreamOpts(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := env.PipelineStreamOpts(from.Clone(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in, fresh) {
			t.Errorf("pipelined on the recompiled plan:\n%+v\nfresh:\n%+v", in, fresh)
		}
	}
	i := 0
	got := testing.AllocsPerRun(20, func() {
		rewrite([]*strategy.Strategy{stage, equal}[i%2])
		i++
		p, err := env.checkoutPlan(s)
		if err != nil {
			t.Fatal(err)
		}
		env.checkinPlan(p)
	})
	if got != 0 {
		t.Errorf("%.0f allocations per in-place recompile, want 0", got)
	}
}

// TestRankRecompilesIdlePlan: ranking a strategy the env's plan memo does
// not hold — the seed, a search result, a stage anchor — recompiles an idle
// plan of another strategy in place instead of compiling a new one. On a
// warmed env a fresh pointer's Latency and ips Score allocate what a memo
// hit allocates and no more, and a plan recompiled over another strategy's
// plan, of another shape included, scores exactly as a fresh Compile does,
// alone and pipelined.
func TestRankRecompilesIdlePlan(t *testing.T) {
	types := []device.Type{device.Xavier, device.Nano, device.TX2, device.Nano}
	env := testEnv(200, types...)
	b := []int{0, 10, 14, 18}
	stage := stageStrategy(env.Model, b, 4)
	ips := ThroughputObjective{Window: 4, Batch: 2}
	if _, err := Rank(env, ips, stage); err != nil {
		t.Fatal(err)
	}
	latency := func(s *strategy.Strategy) {
		if _, _, err := env.Latency(s, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	score := func(s *strategy.Strategy) {
		if _, err := Rank(env, ips, s); err != nil {
			t.Fatal(err)
		}
	}
	for name, eval := range map[string]func(*strategy.Strategy){"latency": latency, "ips": score} {
		hit := testing.AllocsPerRun(10, func() { eval(stage) })
		fresh := make([]*strategy.Strategy, 11)
		for i := range fresh {
			fresh[i] = stage.Clone()
		}
		i := 0
		miss := testing.AllocsPerRun(10, func() {
			eval(fresh[i])
			i++
		})
		if miss != hit {
			t.Errorf("%s: a new strategy pointer allocates %.0f objects, a memo hit %.0f", name, miss, hit)
		}
		stage = fresh[len(fresh)-1]
	}

	shapes := []*strategy.Strategy{
		stage, equalSplitStrategy(env.Model, b, 4),
		equalSplitStrategy(env.Model, []int{0, 5, 18}, 4), stageStrategy(env.Model, []int{0, 2, 7, 12, 16, 18}, 4),
	}
	cfg := PipelineConfig{Images: 24, Window: 4, Batch: 2}
	for _, from := range shapes {
		for _, to := range shapes {
			env := testEnv(200, types...)
			if _, err := env.PipelineStreamOpts(from, cfg); err != nil {
				t.Fatal(err)
			}
			idle := env.plans[from]
			s := to.Clone()
			got, _, err := env.Latency(s, 1.5)
			if err != nil {
				t.Fatal(err)
			}
			if env.plans[s] != idle || len(env.plans) != 1 {
				t.Fatalf("%v after %v: the idle plan was not recompiled in place", to.Boundaries, from.Boundaries)
			}
			gotPipe, err := env.PipelineStreamOpts(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			gotIPS, err := Rank(env, ips, s)
			if err != nil {
				t.Fatal(err)
			}

			p, err := Compile(testEnv(200, types...), to)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := p.run(1.5)
			fresh := testEnv(200, types...)
			wantPipe, err := fresh.PipelineStreamOpts(to, cfg)
			if err != nil {
				t.Fatal(err)
			}
			wantIPS, err := Rank(testEnv(200, types...), ips, to)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(gotIPS) != math.Float64bits(wantIPS) {
				t.Errorf("%v over %v: latency %v, ips score %v; fresh compile %v, %v",
					to.Boundaries, from.Boundaries, got, gotIPS, want, wantIPS)
			}
			if !reflect.DeepEqual(gotPipe, wantPipe) {
				t.Errorf("%v over %v: pipelined\n%+v\nfresh:\n%+v", to.Boundaries, from.Boundaries, gotPipe, wantPipe)
			}
		}
	}
}

// fuzzScenario decodes a bounded scenario from fuzz bytes: every byte
// stream maps to a valid one.
func fuzzScenario(data []byte, providers int) (Scenario, int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	sc := Scenario{
		Policy:   []string{"", AdmitFIFO, AdmitWFQ}[next()%3],
		Window:   1 + next()%6,
		Batch:    next()%6 - 1,
		WireFrac: []float64{0, 1, 0.5, 0.25}[next()%4],
		Start:    float64(next()%3) * 4.5,
	}
	strat := next()
	total := 0
	for i, n := 0, 1+next()%4; i < n; i++ {
		ts := TenantSpec{
			Images:     1 + next()%12,
			Weight:     float64(next() % 5),
			Window:     next() % 3,
			EnqueueSec: float64(next()%4) * 0.4,
		}
		total += ts.Images
		sc.Tenants = append(sc.Tenants, ts)
	}
	for i, n := 0, next()%5; i < n; i++ {
		sc.Events = append(sc.Events, ChurnEvent{
			At:     sc.Start + float64(next())/32,
			Kind:   ChurnKind(next() % 3),
			Device: next() % providers,
			Factor: 0.5 + float64(next()%8)/2,
		})
	}
	recover := next()%4 > 0
	sc.ReplanSec = []float64{0, 0.05, 0.5}[next()%3]
	sc.Replan = shareReplan
	if next()%2 == 0 {
		sc.Replan = latencyReplan
	}
	if !recover {
		sc.Replan = nil
	}
	return sc, strat
}

// FuzzServe: on any valid scenario Serve never panics and never wedges,
// accounts for every image exactly once, and is a pure function of its
// input.
func FuzzServe(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 3, 1, 3, 0, 1, 1, 11, 1, 0, 0, 11, 4, 0, 1, 2, 40, 0, 1, 0, 90, 1, 1, 0, 1, 1, 0})
	f.Add([]byte{1, 5, 5, 0, 2, 3, 3, 7, 0, 2, 3, 7, 2, 1, 0, 7, 3, 0, 2, 4, 10, 0, 0, 0, 20, 0, 1, 0, 30, 0, 2, 0, 40, 0, 3, 0, 1, 2, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 2, 0, 5, 1, 2, 0, 1, 255, 0, 3, 0, 0})
	env := testEnv(150, device.Xavier, device.Nano, device.TX2, device.Nano)
	strats := equivStrategies(env.Model, env.NumProviders())
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, si := fuzzScenario(data, env.NumProviders())
		s := strats[si%len(strats)]
		res, err := env.Serve(s, sc)
		again, err2 := env.Serve(s, sc)
		if !reflect.DeepEqual(res, again) || (err == nil) != (err2 == nil) {
			t.Fatalf("Serve is not a pure function of its input:\n%+v\n%+v", res, again)
		}
		if err != nil {
			// The one way a valid script fails: it drops the whole fleet
			// and asks for a re-plan over nobody.
			if strings.Contains(err.Error(), "wedged") || !strings.Contains(err.Error(), "re-plan") {
				t.Fatalf("valid scenario %+v: %v", sc, err)
			}
			return
		}
		served := 0
		for _, tr := range res.Tenants {
			if tr.Images != len(tr.PerImageSec) {
				t.Fatalf("tenant %s: Images %d, %d latencies", tr.Name, tr.Images, len(tr.PerImageSec))
			}
			served += tr.Images
		}
		if res.Completed+res.Failed != res.Images || served != res.Completed || len(res.PerImageSec) != res.Completed {
			t.Fatalf("images not conserved: %d submitted, %d completed, %d failed, %d served to tenants, %d latencies",
				res.Images, res.Completed, res.Failed, served, len(res.PerImageSec))
		}
		if (res.Failed > 0) != (res.FailedAtSec >= 0) || (sc.Replan != nil && res.Failed > 0) {
			t.Fatalf("failed %d images, FailedAtSec %g, recover %v", res.Failed, res.FailedAtSec, sc.Replan != nil)
		}
	})
}
