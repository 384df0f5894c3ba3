package runtime

import (
	"strings"
	"testing"
	"time"

	"distredge/internal/device"
	"distredge/internal/sim"
)

// TestChaosKillMidWindowStickyFailure is the chaos regression test for the
// sticky-failure semantics of Cluster.Err with recovery disabled: a
// provider is killed while a full admission window is in flight, and every
// in-flight image must fail fast with the same first error — no image may
// hang out its per-image timeout, and the cluster must refuse further work.
// Run under -race in CI: the kill races the send, compute and heartbeat
// paths on purpose.
func TestChaosKillMidWindowStickyFailure(t *testing.T) {
	env := testEnv(device.Xavier, device.Nano, device.TX2, device.Nano)
	s := stageStrategy(env, env.Model, []int{0, 10, 14, 18})
	opts := Options{
		TimeScale:         0.1,
		BytesScale:        0.001,
		Timeout:           30 * time.Second, // failing fast must not depend on it
		HeartbeatInterval: 15 * time.Millisecond,
		HeartbeatMisses:   3,
		Transport:         testTransport(),
	}
	cl, err := Deploy(env, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const images = 16
	start := time.Now()
	stats, err := stream(cl, images, 4, sim.ChurnEvent{At: 1, Kind: sim.DeviceDrop, Device: 2}) // 100 ms of wall clock in
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("run with a killed provider and Recover disabled must fail")
	}
	if elapsed > 10*time.Second {
		t.Errorf("failure took %s — in-flight images waited out the timeout instead of failing fast", elapsed)
	}
	// The run error is the cluster's first recorded error, and it is sticky.
	if cerr := cl.Err(); cerr == nil || cerr.Error() != err.Error() {
		t.Errorf("run error %q != sticky cluster error %v", err, cerr)
	}
	if stats.Completed >= images {
		t.Fatalf("kill landed after the run completed (%d images) — not a mid-window chaos test", stats.Completed)
	}
	if stats.Recoveries != 0 || stats.Requeued != 0 {
		t.Errorf("recovery ran with Recover disabled: %+v", stats)
	}
	// Every image that did not complete fails with the run, not with a
	// partial latency measurement.
	if stats.Failed != images-stats.Completed || len(stats.PerImageSec) != stats.Completed {
		t.Errorf("%d failed and %d latencies for %d completed of %d", stats.Failed, len(stats.PerImageSec), stats.Completed, images)
	}
	for i, sec := range stats.PerImageSec {
		if sec <= 0 {
			t.Errorf("image %d has latency %gs", i, sec)
		}
	}
	if stats.FailedAtSec < 0 {
		t.Error("a failed run must say when it failed")
	}
	// Sticky: later runs are refused outright with the same first error.
	if _, rerr := stream(cl, 1, 1); rerr == nil || !strings.Contains(rerr.Error(), "already failed") {
		t.Errorf("second run on failed cluster: %v", rerr)
	}
	// Concurrent chaos: killing more providers after failure must not panic
	// or resurrect the cluster.
	cl.KillProvider(0)
	cl.KillProvider(3)
	if _, rerr := stream(cl, 1, 1); rerr == nil {
		t.Error("cluster resurrected after failure")
	}
}

// TestChaosHeartbeatOnlyDetection kills a provider that nobody routes to
// mid-run traffic-wise (it owns the final stage, reached late), relying on
// heartbeat loss rather than a send error for detection.
func TestChaosHeartbeatOnlyDetection(t *testing.T) {
	env := testEnv(device.Xavier, device.Nano)
	s := equalStrategy(env, []int{0, 18})
	opts := Options{
		TimeScale:         1, // slow compute: sends are sparse
		BytesScale:        0.001,
		Timeout:           30 * time.Second,
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatMisses:   3,
		Transport:         testTransport(),
	}
	cl, err := Deploy(env, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start := time.Now()
	_, err = stream(cl, 1, 1, sim.ChurnEvent{At: 0.05, Kind: sim.DeviceDrop, Device: 1})
	if err == nil {
		t.Fatal("run must fail once heartbeats stop")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("heartbeat detection took %s", elapsed)
	}
}
