package runtime

import (
	"errors"
	goruntime "runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distredge/internal/device"
	"distredge/internal/sim"
	"distredge/internal/splitter"
	"distredge/internal/strategy"
	"distredge/internal/transport"
)

// recoverOpts are the churn-test options: fast failure detection and
// recovery enabled, compute-dominated scales so measured orderings are
// robust to scheduler noise.
func recoverOpts() Options {
	return Options{
		TimeScale:         0.1,
		BytesScale:        0.001,
		Replan:            splitter.BalancedReplan,
		HeartbeatInterval: 15 * time.Millisecond,
		HeartbeatMisses:   3,
		Transport:         testTransport(),
	}
}

// TestRecoverFromKilledProvider is the basic recovery path: a provider
// dies mid-run (the scenario's drop, 40 ms of wall clock in), the cluster
// quarantines it, re-plans over the survivors and finishes every image;
// the healed cluster serves another run.
func TestRecoverFromKilledProvider(t *testing.T) {
	env := testEnv(device.Xavier, device.Nano, device.TX2, device.Nano)
	s := stageStrategy(env, env.Model, []int{0, 10, 14, 18})
	cl, err := Deploy(env, s, recoverOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const images = 24
	stats, err := stream(cl, images, 4, sim.ChurnEvent{At: 0.4, Kind: sim.DeviceDrop, Device: 1})
	if err != nil {
		t.Fatalf("recovery run failed: %v", err)
	}
	if stats.Completed != images || stats.Failed != 0 {
		t.Fatalf("completed %d of %d images, %d failed", stats.Completed, images, stats.Failed)
	}
	if stats.Recoveries < 1 {
		t.Fatalf("no recovery recorded: %+v", stats)
	}
	if stats.Requeued == 0 {
		t.Error("a mid-run kill must requeue in-flight images")
	}
	if len(stats.EventRecoverySec) != 1 || !(stats.EventRecoverySec[0] > 0) {
		t.Errorf("event recovery = %v, want one positive delay", stats.EventRecoverySec)
	}
	_, _, replanMS, quarantined := cl.Recovery()
	if replanMS <= 0 {
		t.Error("re-planning cost not recorded")
	}
	if len(quarantined) != 1 || quarantined[0] != 1 {
		t.Errorf("quarantined = %v, want [1]", quarantined)
	}
	if live := strategy.CountAlive(cl.dep.Load().alive); live != 3 {
		t.Errorf("live providers = %d, want 3", live)
	}
	if cl.Err() != nil {
		t.Errorf("recovered cluster must read healthy, got %v", cl.Err())
	}
	// The re-planned strategy gives the dead provider nothing.
	cur := cl.Strategy()
	for v := 0; v < cur.NumVolumes(); v++ {
		if r := cur.PartRange(env.Model, v, 1); !r.Empty() {
			t.Errorf("volume %d: quarantined provider 1 still planned for %v", v, r)
		}
	}
	// Latencies of requeued images include the recovery stall but every
	// completed image has a positive latency.
	for i, sec := range stats.PerImageSec {
		if sec <= 0 {
			t.Errorf("image %d latency %gs", i, sec)
		}
	}
	// The healed cluster keeps serving.
	again, err := stream(cl, 4, 2)
	if err != nil {
		t.Fatalf("post-recovery run failed: %v", err)
	}
	if again.Completed != 4 || again.Recoveries != 0 {
		t.Errorf("post-recovery run stats wrong: %+v", again)
	}
	// Watermark invariant: with everything delivered or drained, the gc
	// watermark must have passed every allocated id — a stall here means
	// recovery leaked bookkeeping (and provider state) for an id whose
	// waiter lost the done-vs-failed race.
	bk := cl.bookkeeping()
	if bk.registered != 0 || bk.completed != 0 || bk.gcLow != bk.nextImg+1 {
		t.Errorf("requester bookkeeping leaked: registered=%d completed=%d gcLow=%d nextImg=%d",
			bk.registered, bk.completed, bk.gcLow, bk.nextImg)
	}
}

// TestRecoverUsesTheGivenReplan pins that recovery has no re-planner of
// its own: the cluster re-plans with exactly Options.Replan, once per
// recovery, and serves the strategy it returned.
func TestRecoverUsesTheGivenReplan(t *testing.T) {
	env := testEnv(device.Xavier, device.Nano, device.TX2, device.Nano)
	s := stageStrategy(env, env.Model, []int{0, 10, 14, 18})
	var calls int
	var want *strategy.Strategy
	opts := recoverOpts()
	opts.Transport = transport.NewInproc()
	opts.Replan = func(e *sim.Env, old *strategy.Strategy, alive []bool) (*strategy.Strategy, error) {
		calls++ // recovery runs under the exclusive serving gate
		ns, err := splitter.BalancedReplan(e, old, alive)
		want = ns
		return ns, err
	}
	cl, err := Deploy(env, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const images = 12
	stats, err := stream(cl, images, 4, sim.ChurnEvent{At: 0.4, Kind: sim.DeviceDrop, Device: 1})
	if err != nil {
		t.Fatalf("recovery run failed: %v", err)
	}
	if stats.Completed != images || stats.Recoveries < 1 {
		t.Fatalf("completed %d of %d images after %d recoveries", stats.Completed, images, stats.Recoveries)
	}
	if calls != stats.Recoveries {
		t.Fatalf("Replan called %d times for %d recoveries", calls, stats.Recoveries)
	}
	got := cl.Strategy()
	if !slices.Equal(got.Boundaries, want.Boundaries) {
		t.Fatalf("boundaries %v, want %v", got.Boundaries, want.Boundaries)
	}
	for v := range want.Splits {
		if !slices.Equal(got.Splits[v], want.Splits[v]) {
			t.Errorf("volume %d: cuts %v, want the Replan's %v", v, got.Splits[v], want.Splits[v])
		}
	}
}

// TestRecoverFromIdleDeath: a provider that dies while nobody is submitting
// is latched by the monitor as a failure of the serving deployment. A
// recovering cluster heals it on the next admission instead of refusing the
// run as already failed; a sticky cluster keeps refusing.
func TestRecoverFromIdleDeath(t *testing.T) {
	env := testEnv(device.Xavier, device.Nano, device.TX2, device.Nano)
	s := stageStrategy(env, env.Model, []int{0, 10, 14, 18})
	for _, recover := range []bool{true, false} {
		opts := recoverOpts()
		if !recover {
			opts.Replan = nil
		}
		cl, err := Deploy(env, s, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if _, err := stream(cl, 4, 2); err != nil {
			t.Fatal(err)
		}
		cl.KillProvider(1)
		for deadline := time.Now().Add(5 * time.Second); cl.Err() == nil; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("monitor never latched the idle death")
			}
		}
		stats, err := stream(cl, 8, 4)
		if !recover {
			if err == nil || !strings.Contains(err.Error(), "already failed") {
				t.Errorf("sticky cluster after an idle death: err = %v, want already failed", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("run after an idle death: %v", err)
		}
		if stats.Completed != 8 || stats.Recoveries != 1 {
			t.Errorf("completed %d of 8 with %d recoveries, want all with exactly 1", stats.Completed, stats.Recoveries)
		}
		if q := quarantined(cl); len(q) != 1 || q[0] != 1 {
			t.Errorf("quarantined %v, want [1]", q)
		}
	}
}

// TestClosedRecoverClusterRefusesWithoutRecovering: admission on a closed
// cluster must fail as closed. Treating it as a failure to recover from
// quarantined a healthy provider and redeployed a fleet nobody would ever
// close.
func TestClosedRecoverClusterRefusesWithoutRecovering(t *testing.T) {
	env := testEnv(device.Xavier, device.Nano, device.TX2, device.Nano)
	s := stageStrategy(env, env.Model, []int{0, 10, 14, 18})
	cl, err := Deploy(env, s, recoverOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stream(cl, 4, 2); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	// Teardown is asynchronous; let the goroutine count settle.
	before := goruntime.NumGoroutine()
	for settled := 0; settled < 5; time.Sleep(10 * time.Millisecond) {
		if n := goruntime.NumGoroutine(); n != before {
			before, settled = n, 0
		} else {
			settled++
		}
	}
	if _, err := stream(cl, 2, 1); !errors.Is(err, errClosed) {
		t.Errorf("run on a closed cluster: err = %v, want %v", err, errClosed)
	}
	if err := cl.Submit(); !errors.Is(err, errClosed) {
		t.Errorf("Submit on a closed cluster: err = %v, want %v", err, errClosed)
	}
	if q := quarantined(cl); len(q) != 0 {
		t.Errorf("closed cluster quarantined %v", q)
	}
	if n, _, _, _ := cl.Recovery(); n != 0 {
		t.Errorf("closed cluster ran %d recoveries", n)
	}
	time.Sleep(50 * time.Millisecond)
	if after := goruntime.NumGoroutine(); after > before {
		t.Errorf("refused run left goroutines behind: %d before, %d after", before, after)
	}
}

// TestSubmitRecoversAcrossCallers is the composition recovery exists for:
// independent callers share one cluster, a provider dies under all of them,
// and every call still returns nil — one of them heals the cluster once, the
// others find it healed, each re-scatters its own image.
func TestSubmitRecoversAcrossCallers(t *testing.T) {
	env := testEnv(device.Xavier, device.Nano, device.TX2, device.Nano)
	s := stageStrategy(env, env.Model, []int{0, 10, 14, 18})
	cl, err := Deploy(env, s, recoverOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const callers, each = 6, 6
	kill := time.AfterFunc(40*time.Millisecond, func() { cl.KillProvider(1) })
	defer kill.Stop()
	errs := make([]error, callers*each)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < each; j++ {
				errs[i*each+j] = cl.Submit()
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("caller %d submit %d: %v", i/each, i%each, err)
		}
	}
	recoveries, requeued, replanMS, quarantined := cl.Recovery()
	if recoveries != 1 {
		t.Errorf("%d recoveries, want exactly 1 (requeued %d, %.1fms, quarantined %v)", recoveries, requeued, replanMS, quarantined)
	}
	if requeued < 1 || requeued > callers {
		t.Errorf("requeued %d images, want between 1 and the %d in flight", requeued, callers)
	}
	if live := strategy.CountAlive(cl.dep.Load().alive); live != 3 {
		t.Errorf("live providers = %d, want 3", live)
	}
	bk := cl.bookkeeping()
	if bk.registered != 0 || bk.completed != 0 || bk.gcLow != bk.nextImg+1 {
		t.Errorf("requester bookkeeping leaked: registered=%d completed=%d gcLow=%d nextImg=%d",
			bk.registered, bk.completed, bk.gcLow, bk.nextImg)
	}
}

// TestRecoverUnplannableFailureSurfaces: when recovery cannot identify a
// dead provider (a pure timeout with everyone still beating), the run must
// fail with both causes instead of looping.
func TestRecoverUnplannableFailureSurfaces(t *testing.T) {
	env := testEnv(device.Nano, device.Nano)
	s := equalStrategy(env, []int{0, 18})
	opts := recoverOpts()
	opts.TimeScale = 1 // full-scale sleeps blow through the tiny timeout
	opts.Timeout = 20 * time.Millisecond
	cl, err := Deploy(env, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, err = stream(cl, 1, 1)
	if err == nil {
		t.Fatal("run must fail")
	}
	// Pin the no-progress guard: the error must say recovery could not
	// identify a dead provider AND carry the original cause, so the
	// operator sees why the run stopped instead of an opaque loop exit.
	if !strings.Contains(err.Error(), "no identifiable dead provider") {
		t.Errorf("err %q must surface the no-progress recovery guard", err)
	}
	if !strings.Contains(err.Error(), "timed out") {
		t.Errorf("err %q must carry the original timeout cause", err)
	}
}

// TestChurnDifferentialSimVsRuntime is the acceptance-criterion test: with
// a scripted single-device failure mid-stream, the simulator
// predicts the goodput ordering between recover-on and recover-off over a
// common serving horizon, and the TCP runtime must reproduce it.
func TestChurnDifferentialSimVsRuntime(t *testing.T) {
	env := testEnv(device.Xavier, device.Nano, device.TX2, device.Nano)
	s := stageStrategy(env, env.Model, []int{0, 10, 14, 18})
	const images = 12
	const window = 4
	const failFrac = 0.45

	// --- Simulator prediction (model time). ---
	base, err := env.Serve(s, simPipelined(images, window))
	if err != nil {
		t.Fatal(err)
	}
	events := []sim.ChurnEvent{{At: base.TotalSec * failFrac, Kind: sim.DeviceDrop, Device: 1}}
	sc := simPipelined(images, window)
	sc.Events = events
	simOff, err := env.Serve(s, sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.Replan = splitter.BalancedReplan
	simOn, err := env.Serve(s, sc)
	if err != nil {
		t.Fatal(err)
	}
	// Goodput over the common horizon (the recovered run's span): the
	// truncated stream delivers nothing after the failure.
	horizon := simOn.TotalSec
	if simOff.TotalSec > horizon {
		horizon = simOff.TotalSec
	}
	gOnSim := float64(simOn.Completed) / horizon
	gOffSim := float64(simOff.Completed) / horizon
	if gOnSim <= gOffSim {
		t.Fatalf("simulator must predict recover-on goodput above recover-off: %.3f vs %.3f (completed %d vs %d)",
			gOnSim, gOffSim, simOn.Completed, simOff.Completed)
	}
	if simOff.Completed == 0 || simOff.Completed >= images {
		t.Fatalf("sim failure not mid-stream: completed %d of %d", simOff.Completed, images)
	}

	// --- Runtime reproduction (model time, measured). ---
	opts := recoverOpts()
	pilot, err := Deploy(env, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	pstats, err := stream(pilot, images, window)
	pilot.Close()
	if err != nil {
		t.Fatal(err)
	}
	drop := sim.ChurnEvent{At: pstats.TotalSec * failFrac, Kind: sim.DeviceDrop, Device: 1}

	run := func(recover bool) sim.ServeResult {
		t.Helper()
		o := opts
		if !recover {
			o.Replan = nil
		}
		o.Transport = testTransport() // fresh namespace per cluster
		cl, err := Deploy(env, s, o)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		st, err := stream(cl, images, window, drop)
		if recover && err != nil {
			t.Fatalf("recover-on run failed: %v", err)
		}
		if !recover && err == nil {
			t.Fatal("recover-off run must fail after the kill")
		}
		return st
	}
	rtOn := run(true)
	rtOff := run(false)

	rtHorizon := rtOn.TotalSec
	if rtOff.TotalSec > rtHorizon {
		rtHorizon = rtOff.TotalSec
	}
	gOnRt := float64(rtOn.Completed) / rtHorizon
	gOffRt := float64(rtOff.Completed) / rtHorizon
	t.Logf("sim:     on %d/%d imgs (goodput %.2f), off %d/%d (%.2f), recover in %.0fms (model)",
		simOn.Completed, images, gOnSim, simOff.Completed, images, gOffSim, simOn.EventRecoverySec[0]*1e3)
	t.Logf("runtime: on %d/%d imgs (goodput %.2f), off %d/%d (%.2f), recover in %v s (model)",
		rtOn.Completed, images, gOnRt, rtOff.Completed, images, gOffRt, rtOn.EventRecoverySec)
	if rtOn.Completed != images {
		t.Fatalf("recover-on runtime completed %d of %d", rtOn.Completed, images)
	}
	if rtOff.Completed >= images {
		t.Fatalf("recover-off runtime lost no images (kill too late?): %+v", rtOff)
	}
	if gOnRt <= gOffRt {
		t.Errorf("runtime does not reproduce the predicted goodput ordering: on %.3f <= off %.3f", gOnRt, gOffRt)
	}
	if rtOn.Recoveries < 1 {
		t.Errorf("recover-on runtime recorded no recovery: %+v", rtOn)
	}
}

// TestSubmitReusesWaitersAcrossRecoveries: callers keep submitting while
// two providers die one after the other, so attempts leave on their
// deployment's failure with result chunks still in flight, and the waiters
// they release go straight to later images on the healed fleet. Every call
// must return nil; afterwards no image is armed, there are no more waiters
// than callers, and no idle one holds a token a later image would wake on.
func TestSubmitReusesWaitersAcrossRecoveries(t *testing.T) {
	env := testEnv(device.Xavier, device.Nano, device.TX2, device.Nano)
	s := stageStrategy(env, env.Model, []int{0, 10, 14, 18})
	cl, err := Deploy(env, s, recoverOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Each kill lands 30 ms into a deployment's serving, so it kills the
	// published fleet rather than one a recovery is about to replace.
	var stop atomic.Bool
	go func() {
		defer stop.Store(true)
		for k := 1; k <= 2; k++ {
			time.Sleep(30 * time.Millisecond)
			cl.KillProvider(k)
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				if n, _, _, _ := cl.Recovery(); n == k || time.Now().After(deadline) {
					break
				}
			}
		}
		time.Sleep(30 * time.Millisecond)
	}()
	const callers = 8
	var mu sync.Mutex
	var errs []error
	var wg sync.WaitGroup
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if err := cl.Submit(); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		t.Error(err)
	}
	recoveries, requeued, _, quarantined := cl.Recovery()
	t.Logf("%d images, %d recoveries, %d requeued, quarantined %v", cl.nextImg.Load(), recoveries, requeued, quarantined)
	if recoveries != 2 || requeued < 2 {
		t.Errorf("%d recoveries and %d requeued images, want 2 and at least one per kill", recoveries, requeued)
	}
	bk := cl.bookkeeping()
	if bk.registered != 0 || bk.completed != 0 || bk.gcLow != bk.nextImg+1 {
		t.Errorf("requester bookkeeping leaked: registered=%d completed=%d gcLow=%d nextImg=%d",
			bk.registered, bk.completed, bk.gcLow, bk.nextImg)
	}
	cl.comp.mu.Lock()
	defer cl.comp.mu.Unlock()
	if n := len(cl.comp.idle); n == 0 || n > callers {
		t.Errorf("%d idle waiters for %d callers", n, callers)
	}
	for _, w := range cl.comp.idle {
		if len(w.done) != 0 {
			t.Error("an idle waiter holds a token")
		}
	}
}
