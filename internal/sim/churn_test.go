package sim

import (
	"fmt"
	"testing"

	"distredge/internal/cnn"
	"distredge/internal/device"
	"distredge/internal/strategy"
)

// churned is oneTenant under a scripted fleet timeline.
func churned(images, window int, events []ChurnEvent, opts ChurnOptions) Scenario {
	sc := oneTenant(images, window, 0)
	sc.Events, sc.ChurnOptions = events, opts
	return sc
}

// TestChurnDropWithoutRecoveryTruncates pins the sticky-failure model: a
// drop mid-stream commits only the images that completed before it and
// fails the rest, so goodput is strictly below the recovered run's.
func TestChurnDropWithoutRecoveryTruncates(t *testing.T) {
	env := testEnv(200, device.Xavier, device.Nano, device.TX2, device.Nano)
	s := stageStrategy(env.Model, []int{0, 10, 14, 18}, 4)
	const images = 40
	base, err := env.Serve(s, oneTenant(images, 4, 0))
	if err != nil {
		t.Fatal(err)
	}
	failAt := base.TotalSec * 0.5
	events := []ChurnEvent{{At: failAt, Kind: DeviceDrop, Device: 1}}

	off, err := env.Serve(s, churned(images, 4, events, ChurnOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if off.Completed == 0 || off.Completed >= images {
		t.Fatalf("recover-off completed %d of %d images; the drop must truncate mid-stream", off.Completed, images)
	}
	if off.Failed != images-off.Completed {
		t.Errorf("failed = %d, want %d", off.Failed, images-off.Completed)
	}
	if off.FailedAtSec != failAt {
		t.Errorf("FailedAtSec = %g, want %g", off.FailedAtSec, failAt)
	}

	on, err := env.Serve(s, churned(images, 4, events, ChurnOptions{Replan: shareReplan}))
	if err != nil {
		t.Fatal(err)
	}
	if on.Completed != images || on.Failed != 0 {
		t.Fatalf("recover-on must complete everything: %+v", on)
	}
	if on.Recoveries != 1 {
		t.Errorf("recoveries = %d, want 1", on.Recoveries)
	}
	if on.Requeued == 0 {
		t.Error("a mid-stream drop must requeue in-flight images")
	}
	if on.IPS <= off.IPS {
		t.Errorf("recovered goodput %.3f not above truncated goodput %.3f", on.IPS, off.IPS)
	}
	// Note: on.TotalSec may legitimately beat the churn-free run — the
	// stage layout is throughput-oriented, and the post-drop re-plan can
	// land on a better-balanced strategy for the survivors.
	if len(on.EventRecoverySec) != 1 || on.EventRecoverySec[0] <= 0 {
		t.Errorf("event recovery time missing: %v", on.EventRecoverySec)
	}
}

// TestChurnReplanChargeDelaysRecovery checks the ReplanSec knob: a larger
// simulated re-planning delay pushes the first post-event completion out.
func TestChurnReplanChargeDelaysRecovery(t *testing.T) {
	env := testEnv(200, device.Xavier, device.Nano, device.TX2, device.Nano)
	s := stageStrategy(env.Model, []int{0, 10, 14, 18}, 4)
	base, err := env.Serve(s, oneTenant(30, 4, 0))
	if err != nil {
		t.Fatal(err)
	}
	events := []ChurnEvent{{At: base.TotalSec * 0.4, Kind: DeviceDrop, Device: 2}}
	cheap, err := env.Serve(s, churned(30, 4, events, ChurnOptions{Replan: shareReplan}))
	if err != nil {
		t.Fatal(err)
	}
	dear, err := env.Serve(s, churned(30, 4, events, ChurnOptions{ReplanSec: 2, Replan: shareReplan}))
	if err != nil {
		t.Fatal(err)
	}
	if dear.EventRecoverySec[0] <= cheap.EventRecoverySec[0] {
		t.Errorf("replan charge did not delay recovery: %.3fs vs %.3fs",
			dear.EventRecoverySec[0], cheap.EventRecoverySec[0])
	}
	if dear.TotalSec <= cheap.TotalSec {
		t.Errorf("replan charge did not slow the stream: %.3fs vs %.3fs", dear.TotalSec, cheap.TotalSec)
	}
}

// TestChurnSlowdownDegradesThroughput: slowing the bottleneck device must
// reduce goodput even with recovery re-planning around it.
func TestChurnSlowdownDegradesThroughput(t *testing.T) {
	env := testEnv(200, device.Xavier, device.Nano)
	s := equalSplitStrategy(env.Model, strategy.PoolBoundaries(env.Model), 2)
	base, err := env.Serve(s, oneTenant(30, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	events := []ChurnEvent{{At: base.TotalSec * 0.25, Kind: DeviceSlow, Device: 0, Factor: 4}}
	slowed, err := env.Serve(s, churned(30, 2, events, ChurnOptions{Replan: shareReplan}))
	if err != nil {
		t.Fatal(err)
	}
	if slowed.Completed != 30 {
		t.Fatalf("slowdown must not lose images: %+v", slowed)
	}
	if slowed.IPS >= base.IPS {
		t.Errorf("4x slowdown of device 0 did not reduce IPS: %.3f vs %.3f", slowed.IPS, base.IPS)
	}
}

// shareReplan is the profile-free test re-planner: it keeps the
// boundaries and redistributes every volume's rows over the alive
// providers, weighting each survivor by the share it already held and
// giving dead providers empty parts. A volume no survivor held any rows of
// is split equally over the survivors. In-package sim tests cannot import
// internal/splitter (an import cycle), so they re-plan with this or with
// latencyReplan.
func shareReplan(e *Env, old *strategy.Strategy, alive []bool) (*strategy.Strategy, error) {
	n := old.NumProviders()
	if len(alive) != n {
		return nil, fmt.Errorf("rebalance mask has %d entries for %d providers", len(alive), n)
	}
	if strategy.CountAlive(alive) == 0 {
		return nil, fmt.Errorf("rebalance with no alive providers")
	}
	out := &strategy.Strategy{Boundaries: append([]int(nil), old.Boundaries...)}
	out.Splits = make([][]int, len(old.Splits))
	for v := range old.Splits {
		h := strategy.VolumeHeight(e.Model, old.Boundaries, v)
		weights := make([]float64, n)
		var total float64
		for i := 0; i < n; i++ {
			if !alive[i] {
				continue
			}
			w := float64(strategy.CutRange(old.Splits[v], h, i).Len())
			weights[i] = w
			total += w
		}
		if total <= 0 {
			for i := 0; i < n; i++ {
				if alive[i] {
					weights[i] = 1
				}
			}
		}
		out.Splits[v] = strategy.ProportionalCuts(h, weights)
	}
	return out, nil
}

// latencyReplan is a profile-aware test re-planner: each volume is split
// proportionally to the alive devices' measured speed (the shape of
// splitter.BalancedReplan). Unlike shareReplan it gives a joining device —
// whose old share is zero — real work.
func latencyReplan(e *Env, old *strategy.Strategy, alive []bool) (*strategy.Strategy, error) {
	out := &strategy.Strategy{Boundaries: append([]int(nil), old.Boundaries...)}
	for v := 0; v < old.NumVolumes(); v++ {
		layers := strategy.Volume(e.Model, old.Boundaries, v)
		h := strategy.VolumeHeight(e.Model, old.Boundaries, v)
		weights := make([]float64, len(alive))
		for i := range alive {
			if !alive[i] {
				continue
			}
			if lat := e.VolumeLatency(i, layers, cnn.RowRange{Lo: 0, Hi: h}); lat > 0 {
				weights[i] = 1 / lat
			}
		}
		out.Splits = append(out.Splits, strategy.ProportionalCuts(h, weights))
	}
	return out, nil
}

// TestChurnDropThenRejoin: a device that drops and later rejoins must end
// the stream with work flowing over it again, and beat the drop-only run.
func TestChurnDropThenRejoin(t *testing.T) {
	env := testEnv(200, device.Xavier, device.Nano, device.TX2, device.Nano)
	s := equalSplitStrategy(env.Model, []int{0, 10, 14, 18}, 4)
	base, err := env.Serve(s, oneTenant(40, 4, 0))
	if err != nil {
		t.Fatal(err)
	}
	drop := ChurnEvent{At: base.TotalSec * 0.2, Kind: DeviceDrop, Device: 0}
	join := ChurnEvent{At: base.TotalSec * 0.5, Kind: DeviceJoin, Device: 0}
	opts := ChurnOptions{Replan: latencyReplan}

	dropOnly, err := env.Serve(s, churned(40, 4, []ChurnEvent{drop}, opts))
	if err != nil {
		t.Fatal(err)
	}
	rejoin, err := env.Serve(s, churned(40, 4, []ChurnEvent{drop, join}, opts))
	if err != nil {
		t.Fatal(err)
	}
	if rejoin.Recoveries != 2 {
		t.Errorf("recoveries = %d, want 2 (drop + join)", rejoin.Recoveries)
	}
	if rejoin.Completed != 40 || dropOnly.Completed != 40 {
		t.Fatalf("recovered streams must complete: rejoin %+v dropOnly %+v", rejoin, dropOnly)
	}
	// Getting the fastest device back mid-stream must not hurt and should
	// help: the rejoin run finishes no later than the drop-only run.
	if rejoin.TotalSec > dropOnly.TotalSec*1.001 {
		t.Errorf("rejoin run (%.3fs) slower than staying degraded (%.3fs)", rejoin.TotalSec, dropOnly.TotalSec)
	}
}

func TestChurnRejectsBadEvents(t *testing.T) {
	env := testEnv(100, device.Nano, device.Nano)
	s := equalSplitStrategy(env.Model, strategy.SingleVolume(env.Model), 2)
	if _, err := env.Serve(s, churned(5, 1, []ChurnEvent{{At: 1, Kind: DeviceDrop, Device: 7}}, ChurnOptions{})); err == nil {
		t.Error("out-of-range device must error")
	}
	if _, err := env.Serve(s, churned(5, 1, []ChurnEvent{{At: 1, Kind: DeviceSlow, Device: 0}}, ChurnOptions{})); err == nil {
		t.Error("slow event without factor must error")
	}
	if _, err := env.Serve(s, churned(0, 1, nil, ChurnOptions{})); err == nil {
		t.Error("zero images must error")
	}
	if _, err := env.Serve(s, churned(5, 0, nil, ChurnOptions{})); err == nil {
		t.Error("zero window must error")
	}
	// Dropping the whole fleet is unrecoverable.
	events := []ChurnEvent{
		{At: 0.1, Kind: DeviceDrop, Device: 0},
		{At: 0.2, Kind: DeviceDrop, Device: 1},
	}
	if _, err := env.Serve(s, churned(50, 2, events, ChurnOptions{Replan: shareReplan})); err == nil {
		t.Error("dropping every provider must error")
	}
}

func TestEnvSubset(t *testing.T) {
	env := testEnv(150, device.Xavier, device.Nano, device.TX2, device.Nano)
	sub, idx, err := env.Subset([]bool{true, false, true, false})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumProviders() != 2 || len(idx) != 2 || idx[0] != 0 || idx[1] != 2 {
		t.Fatalf("subset wrong: n=%d idx=%v", sub.NumProviders(), idx)
	}
	if len(sub.Net.Providers) != 2 {
		t.Fatalf("subset network has %d links", len(sub.Net.Providers))
	}
	if _, _, err := env.Subset([]bool{false, false, false, false}); err == nil {
		t.Error("empty subset must error")
	}
	if _, _, err := env.Subset([]bool{true}); err == nil {
		t.Error("short mask must error")
	}
}
