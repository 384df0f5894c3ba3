package runtime

import (
	"strings"
	"testing"
	"time"

	"distredge/internal/cnn"
	"distredge/internal/device"
	"distredge/internal/sim"
	"distredge/internal/strategy"
)

// stageStrategy assigns volume v entirely to provider v%n — the layout with
// the most pipeline parallelism to gain, mirroring sim's pipeline tests.
func stageStrategy(env interface {
	NumProviders() int
}, m *cnn.Model, boundaries []int) *strategy.Strategy {
	n := env.NumProviders()
	s := &strategy.Strategy{Boundaries: boundaries}
	for v := 0; v+1 < len(boundaries); v++ {
		h := strategy.VolumeHeight(m, boundaries, v)
		s.Splits = append(s.Splits, strategy.AllOnProvider(h, n, v%n))
	}
	return s
}

// TestSelfRouteFanoutNoDeadlock is the regression test for the seed's
// self-route deadlock: computeLoop called deliver, which blocked sending
// into the bounded compute queue while computeLoop — the only drainer — was
// the caller. A plan whose ready-step fan-out exceeds the old queue
// capacity (64) hung forever; the unbounded ready queue must drain it.
func TestSelfRouteFanoutNoDeadlock(t *testing.T) {
	const fanout = 100
	plan := ProviderPlan{Index: 0}
	plan.Steps = append(plan.Steps, Step{
		Volume:   0,
		Part:     cnn.RowRange{Lo: 0, Hi: 1},
		Needs:    []Need{{Volume: -1, Lo: 0, Hi: 1}},
		Routes:   []Route{{Dest: 0, Lo: 0, Hi: 1}}, // self-route
		RowBytes: 1,
	})
	for i := 0; i < fanout; i++ {
		plan.Steps = append(plan.Steps, Step{
			Volume:   1,
			Part:     cnn.RowRange{Lo: 0, Hi: 1},
			Needs:    []Need{{Volume: 0, Lo: 0, Hi: 1}},
			RowBytes: 1,
		})
	}
	p, err := newProvider(plan, 0, 0, 1, nil, testTransport())
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	p.inbox <- inMsg{ch: Chunk{Image: 1, Volume: -1, Lo: 0, Hi: 1, Payload: []byte{0}}, ready: instantOf(time.Now())}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := p.rec.snapshot(0).StepsExecuted; got == fanout+1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("self-route fan-out deadlocked: %d of %d steps executed",
				p.rec.snapshot(0).StepsExecuted, fanout+1)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeRejectsBadArgs covers the argument validation of a one-tenant
// stream: no image is submitted for a stream that is refused.
func TestServeRejectsBadArgs(t *testing.T) {
	env := testEnv(device.Nano, device.Nano)
	s := equalStrategy(env, []int{0, 18})
	cl, err := Deploy(env, s, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := stream(cl, 0, 1); err == nil {
		t.Error("zero images must error")
	}
	if _, err := stream(cl, 3, 0); err == nil {
		t.Error("zero window must error")
	}
	if n := cl.nextImg.Load(); n != 0 {
		t.Errorf("refused streams submitted %d images", n)
	}
}

// TestClusterRunTwice guards the image-id allocation across runs: the seed
// reused ids 1..N on every run, so a second run collided with the previous
// run's leftover assembly state and hung. Ids are now monotonic for the
// cluster's lifetime.
func TestClusterRunTwice(t *testing.T) {
	env := testEnv(device.Xavier, device.Nano)
	s := equalStrategy(env, []int{0, 10, 18})
	cl, err := Deploy(env, s, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := stream(cl, 2, 1); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if _, err := stream(cl, 2, 1); err != nil {
		t.Fatalf("second run: %v", err)
	}
}

// TestWindowGCDropsState checks the window-aware gc: once every admitted
// image has completed, no provider holds assembly state for any of them.
func TestWindowGCDropsState(t *testing.T) {
	env := testEnv(device.Xavier, device.Nano, device.TX2, device.Nano)
	s := equalStrategy(env, []int{0, 10, 14, 18})
	cl, err := Deploy(env, s, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	stats, err := stream(cl, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Window != 3 || stats.Completed != 6 || len(stats.PerImageSec) != 6 {
		t.Fatalf("stats wrong: %+v", stats)
	}
	for i, sec := range stats.PerImageSec {
		if sec <= 0 {
			t.Errorf("image %d latency %gs", i, sec)
		}
	}
	for _, p := range cl.dep.Load().providers {
		p.mu.Lock()
		n := len(p.images)
		p.mu.Unlock()
		if n != 0 {
			t.Errorf("provider %d still holds %d images of assembly state", p.plan.Index, n)
		}
	}
}

// TestSendFailureFailsFast kills a peer and checks that the next failed
// send aborts the run immediately — the seed swallowed every send error as
// "cluster is shutting down" and made the requester wait out the full 30s
// per-image timeout.
func TestSendFailureFailsFast(t *testing.T) {
	env := testEnv(device.Xavier, device.Nano)
	h0 := strategy.VolumeHeight(env.Model, []int{0, 10, 18}, 0)
	h1 := strategy.VolumeHeight(env.Model, []int{0, 10, 18}, 1)
	s := &strategy.Strategy{
		Boundaries: []int{0, 10, 18},
		Splits: [][]int{
			strategy.AllOnProvider(h0, 2, 0), // provider 0 computes volume 0...
			strategy.EqualCuts(h1, 2),        // ...and must send volume 1's halo to provider 1
		},
	}
	cl, err := Deploy(env, s, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.dep.Load().providers[1].close() // peer dies before any traffic

	start := time.Now()
	_, err = stream(cl, 2, 1)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("run against a dead peer must fail")
	}
	if elapsed > 10*time.Second {
		t.Errorf("failure took %s — not fast-failing (timeout is %s)", elapsed, cl.opts.Timeout)
	}
	if cl.Err() == nil {
		t.Error("cluster must record the failure")
	}
	// Failure is sticky: a later run is refused outright instead of
	// returning the stale error as its own result.
	if _, err := stream(cl, 1, 1); err == nil || !strings.Contains(err.Error(), "already failed") {
		t.Errorf("second run on failed cluster: %v", err)
	}
}

// TestTimeoutIsAnOption checks the per-image timeout is configurable and
// reported as such.
func TestTimeoutIsAnOption(t *testing.T) {
	env := testEnv(device.Nano, device.Nano)
	s := equalStrategy(env, []int{0, 18})
	// Full-scale compute sleeps are far longer than the 10ms budget.
	cl, err := Deploy(env, s, Options{TimeScale: 1, BytesScale: 0.001, Timeout: 10 * time.Millisecond, Transport: testTransport()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start := time.Now()
	_, err = stream(cl, 1, 1)
	if err == nil {
		t.Fatal("run must time out")
	}
	if !strings.Contains(err.Error(), "timed out") {
		t.Errorf("error %q does not mention the timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timeout after %s, want ~10ms", elapsed)
	}
}

// TestPipelinedThroughputOrderingMatchesSim is the acceptance-criterion
// differential test: on a multi-device case the simulator predicts that an
// admission window of 4 sustains measurably more images/sec than the
// sequential protocol, and the scaled TCP runtime must reproduce that
// ordering with a real measured margin.
func TestPipelinedThroughputOrderingMatchesSim(t *testing.T) {
	env := testEnv(device.Xavier, device.Nano, device.TX2, device.Nano)
	s := stageStrategy(env, env.Model, []int{0, 10, 14, 18})

	// Simulator prediction (unscaled model time; only the ordering and the
	// rough magnitude of the speedup transfer to the scaled runtime).
	seqSim, err := env.Serve(s, simPipelined(40, 1))
	if err != nil {
		t.Fatal(err)
	}
	pipSim, err := env.Serve(s, simPipelined(40, 4))
	if err != nil {
		t.Fatal(err)
	}
	if pipSim.IPS <= seqSim.IPS {
		t.Fatalf("simulator must predict a pipelined speedup: %.3f vs %.3f", pipSim.IPS, seqSim.IPS)
	}

	// Scaled runtime: compute sleeps dominate (payloads scaled tiny),
	// so the measured ordering is robust to scheduler noise.
	const images = 12
	run := func(window int) sim.ServeResult {
		t.Helper()
		opts := Options{TimeScale: 0.1, BytesScale: 0.001, Transport: testTransport()}
		cl, err := Deploy(env, s, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		st, err := stream(cl, images, window)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	seqRun := run(1)
	pipRun := run(4)
	t.Logf("sim:     window 1 %.2f ips, window 4 %.2f ips (%.2fx)",
		seqSim.IPS, pipSim.IPS, pipSim.IPS/seqSim.IPS)
	t.Logf("runtime: window 1 %.2f ips, window 4 %.2f ips (%.2fx)",
		seqRun.IPS, pipRun.IPS, pipRun.IPS/seqRun.IPS)
	if pipRun.IPS <= 1.15*seqRun.IPS {
		t.Errorf("runtime does not reproduce the predicted pipelined speedup: window 4 %.2f ips vs window 1 %.2f ips",
			pipRun.IPS, seqRun.IPS)
	}
}
