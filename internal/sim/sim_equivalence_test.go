package sim

import (
	"testing"

	"distredge/internal/cnn"
	"distredge/internal/device"
	"distredge/internal/network"
	"distredge/internal/strategy"
)

// Differential tests for the compiled execution path: Latency/Stream (the
// compiled plan) must reproduce ReferenceLatency (the original per-image
// derivation) bit-for-bit through the device-latency cache, on stable,
// constant and dynamic networks. device.TestCacheMatchesDirectEvaluation
// holds the cache to direct evaluation.

func equivEnv(t *testing.T, constant bool) *Env {
	t.Helper()
	devs := device.Fleet(device.Xavier, device.TX2, device.Nano, device.Pi3)
	net := &network.Network{}
	if constant {
		net.Requester = network.DefaultLink(network.Constant(200))
		for range devs {
			net.Providers = append(net.Providers, network.DefaultLink(network.Constant(150)))
		}
	} else {
		net = network.NewStable([]float64{50, 100, 200, 300}, 5, 11)
	}
	return &Env{Model: cnn.VGG16(), Devices: device.AsModels(devs), Net: net}
}

// equivStrategies covers the structural variety the simulator handles:
// fused volumes, layer-by-layer, pool boundaries, empty parts, everything
// on one provider.
func equivStrategies(m *cnn.Model, n int) []*strategy.Strategy {
	var out []*strategy.Strategy
	build := func(boundaries []int, cuts func(h int) []int) {
		s := &strategy.Strategy{Boundaries: boundaries}
		for v := 0; v+1 < len(boundaries); v++ {
			h := strategy.VolumeHeight(m, boundaries, v)
			s.Splits = append(s.Splits, cuts(h))
		}
		out = append(out, s)
	}
	build(strategy.SingleVolume(m), func(h int) []int { return strategy.EqualCuts(h, n) })
	build(strategy.LayerByLayer(m), func(h int) []int { return strategy.EqualCuts(h, n) })
	build(strategy.PoolBoundaries(m), func(h int) []int {
		return strategy.ProportionalCuts(h, []float64{4, 2, 1, 0}) // empty last part
	})
	build([]int{0, 10, 14, 18}, func(h int) []int { return strategy.AllOnProvider(h, n, 2) })
	return out
}

func sameBreakdown(a, b Breakdown) bool {
	if len(a.PerDevComp) != len(b.PerDevComp) || len(a.PerDevTrans) != len(b.PerDevTrans) {
		return false
	}
	for i := range a.PerDevComp {
		if a.PerDevComp[i] != b.PerDevComp[i] || a.PerDevTrans[i] != b.PerDevTrans[i] {
			return false
		}
	}
	return true
}

func TestCompiledLatencyMatchesReference(t *testing.T) {
	for _, constant := range []bool{true, false} {
		env := equivEnv(t, constant)
		for si, s := range equivStrategies(env.Model, env.NumProviders()) {
			for _, at := range []float64{0, 17.3, 301.9} {
				wantLat, wantBD, err := env.ReferenceLatency(s, at)
				if err != nil {
					t.Fatalf("strategy %d: reference: %v", si, err)
				}
				gotLat, gotBD, err := env.Latency(s, at)
				if err != nil {
					t.Fatalf("strategy %d: compiled: %v", si, err)
				}
				if gotLat != wantLat {
					t.Errorf("strategy %d at %g (constant=%v): latency %.17g != reference %.17g",
						si, at, constant, gotLat, wantLat)
				}
				if !sameBreakdown(gotBD, wantBD) {
					t.Errorf("strategy %d at %g: breakdown differs", si, at)
				}
			}
		}
		if st := env.CacheStats(); st.Misses == 0 {
			t.Errorf("constant=%v: the env's device-latency cache recorded no misses", constant)
		}
	}
}

func TestStreamMatchesReferenceLoop(t *testing.T) {
	for _, constant := range []bool{true, false} {
		env := equivEnv(t, constant)
		for si, s := range equivStrategies(env.Model, env.NumProviders()) {
			const images = 40
			// The pre-compilation Stream semantics: one Latency per image.
			tt := 0.0
			var lastBD Breakdown
			for i := 0; i < images; i++ {
				lat, bd, err := env.ReferenceLatency(s, tt)
				if err != nil {
					t.Fatalf("strategy %d: reference: %v", si, err)
				}
				tt += lat
				lastBD = bd
			}
			res, err := env.Stream(s, images, 0)
			if err != nil {
				t.Fatalf("strategy %d: stream: %v", si, err)
			}
			if res.TotalSec != tt {
				t.Errorf("strategy %d (constant=%v): TotalSec %.17g != reference %.17g",
					si, constant, res.TotalSec, tt)
			}
			if res.IPS != float64(images)/tt {
				t.Errorf("strategy %d: IPS mismatch", si)
			}
			if !sameBreakdown(res.Breakdown, lastBD) {
				t.Errorf("strategy %d: final breakdown differs", si)
			}
		}
	}
}

// TestStreamFastPathEngages pins that the steady-state extrapolation is
// actually exercised on constant networks: a huge image count must finish
// without simulating every image (timeout-by-construction: 1e6 images of a
// ~100ms-latency VGG16 plan would take minutes if simulated one by one).
func TestStreamFastPathEngages(t *testing.T) {
	env := equivEnv(t, true)
	s := equivStrategies(env.Model, env.NumProviders())[0]
	res, err := env.Stream(s, 1_000_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	lat, _, err := env.ReferenceLatency(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	// With a time-invariant network every image costs exactly lat.
	want := 0.0
	for i := 0; i < 1_000_000; i++ {
		want += lat
	}
	if res.TotalSec != want {
		t.Errorf("fast path TotalSec %.17g != %.17g", res.TotalSec, want)
	}
}

// TestPlanMemoSurvivesStrategyMutation guards the fingerprint check: an
// in-place edit of a previously compiled strategy must trigger recompile,
// not replay of the stale plan.
func TestPlanMemoSurvivesStrategyMutation(t *testing.T) {
	env := equivEnv(t, true)
	s := equivStrategies(env.Model, env.NumProviders())[3].Clone()
	if _, _, err := env.Latency(s, 0); err != nil {
		t.Fatal(err)
	}
	// Move all rows from provider 2 to provider 0 in every volume.
	for v := range s.Splits {
		h := strategy.VolumeHeight(env.Model, s.Boundaries, v)
		s.Splits[v] = strategy.AllOnProvider(h, env.NumProviders(), 0)
	}
	got, _, err := env.Latency(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := env.ReferenceLatency(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("mutated strategy replayed stale plan: %.17g != %.17g", got, want)
	}
}

// TestExecResetReuse pins that a reused Exec reproduces a fresh one.
func TestExecResetReuse(t *testing.T) {
	env := equivEnv(t, false)
	s := equivStrategies(env.Model, env.NumProviders())[0]
	x := NewExec(env, s.Boundaries, 5)
	for v := 0; v < s.NumVolumes(); v++ {
		x.Step(s.Splits[v])
	}
	if _, _, err := x.Finish(); err != nil {
		t.Fatal(err)
	}
	x.Reset(s.Boundaries, 9.25)
	for v := 0; v < s.NumVolumes(); v++ {
		x.Step(s.Splits[v])
	}
	gotLat, gotBD, err := x.Finish()
	if err != nil {
		t.Fatal(err)
	}
	wantLat, wantBD, err := env.ReferenceLatency(s, 9.25)
	if err != nil {
		t.Fatal(err)
	}
	if gotLat != wantLat || !sameBreakdown(gotBD, wantBD) {
		t.Errorf("reused exec differs from fresh execution: %.17g != %.17g", gotLat, wantLat)
	}
}
