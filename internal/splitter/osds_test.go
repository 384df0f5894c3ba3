package splitter

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"distredge/internal/cnn"
	"distredge/internal/device"
	"distredge/internal/network"
	"distredge/internal/sim"
	"distredge/internal/strategy"
)

func testEnv(types ...device.Type) *sim.Env {
	devs := device.Fleet(types...)
	net := &network.Network{Requester: network.DefaultLink(network.Constant(200))}
	for range devs {
		net.Providers = append(net.Providers, network.DefaultLink(network.Constant(200)))
	}
	return &sim.Env{Model: cnn.VGG16(), Devices: device.AsModels(devs), Net: net}
}

func smallCfg(seed int64) Config {
	return Config{
		Episodes:  40,
		Hidden:    []int{24, 24},
		Batch:     16,
		SigmaSq:   0.1,
		Seed:      seed,
		WarmStart: true,
	}
}

// mapFresh is mapAction into fresh buffers.
func mapFresh(raw []float64, h int) []int {
	return mapAction(make([]int, len(raw)), make([]float64, len(raw)), raw, h)
}

// balancedCuts is the all-provider balanced split into a fresh slice.
func balancedCuts(env *sim.Env, layers []cnn.Layer, h int) []int {
	var w warmScratch
	return w.balancedAll(make([]int, env.NumProviders()-1), env, layers, h)
}

func TestMapActionProperties(t *testing.T) {
	f := func(raw [3]float64, hRaw uint8) bool {
		h := int(hRaw)%200 + 1
		vals := make([]float64, 3)
		for i, v := range raw[:] {
			vals[i] = math.Mod(v, 1) // keep in (-1,1)
			if math.IsNaN(vals[i]) {
				vals[i] = 0
			}
		}
		cuts := mapFresh(vals, h)
		if !sort.IntsAreSorted(cuts) {
			return false
		}
		for _, c := range cuts {
			if c < 0 || c > h {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMapActionExtremes(t *testing.T) {
	cuts := mapFresh([]float64{-1, -1, -1}, 100)
	for _, c := range cuts {
		if c != 0 {
			t.Fatalf("all -1 should map to 0: %v", cuts)
		}
	}
	cuts = mapFresh([]float64{1, 1, 1}, 100)
	for _, c := range cuts {
		if c != 100 {
			t.Fatalf("all +1 should map to h: %v", cuts)
		}
	}
	cuts = mapFresh([]float64{0}, 100)
	if cuts[0] != 50 {
		t.Fatalf("0 should map to h/2: %v", cuts)
	}
}

func TestActionRoundTrip(t *testing.T) {
	h := 224
	cuts := []int{56, 112, 168}
	raw := actionFromCuts(make([]float64, len(cuts)), cuts, h)
	back := mapFresh(raw, h)
	for i := range cuts {
		if back[i] != cuts[i] {
			t.Fatalf("roundtrip %v -> %v -> %v", cuts, raw, back)
		}
	}
}

func TestBalancedCutsBeatEqualOnHeterogeneous(t *testing.T) {
	env := testEnv(device.Xavier, device.Nano, device.Nano, device.Pi3)
	layers := env.Model.SplittableLayers()[:4]
	h := layers[3].OutHeight()
	bal := balancedCuts(env, layers, h)
	eq := strategy.EqualCuts(h, 4)
	worst := func(cuts []int) float64 {
		var w float64
		for i := 0; i < 4; i++ {
			part := strategy.CutRange(cuts, h, i)
			if l := device.VolumeLatency(env.Devices[i], layers, part); l > w {
				w = l
			}
		}
		return w
	}
	if worst(bal) >= worst(eq) {
		t.Errorf("balanced cuts %v (%.4gs) not better than equal %v (%.4gs)",
			bal, worst(bal), eq, worst(eq))
	}
}

func TestBalancedCutsExcludeUselessDevice(t *testing.T) {
	// A Pi3 next to Xaviers should receive (almost) nothing — the paper's
	// Group-DC observation (Section VI-(2)).
	env := testEnv(device.Xavier, device.Xavier, device.Xavier, device.Pi3)
	layers := env.Model.SplittableLayers()[:4]
	h := layers[3].OutHeight()
	cuts := balancedCuts(env, layers, h)
	pi3Rows := strategy.CutRange(cuts, h, 3).Len()
	if pi3Rows > h/16 {
		t.Errorf("Pi3 was given %d of %d rows", pi3Rows, h)
	}
}

func TestSearchReturnsValidStrategy(t *testing.T) {
	env := testEnv(device.Xavier, device.Nano, device.TX2, device.Nano)
	boundaries := strategy.PoolBoundaries(env.Model)
	res, err := Search(env, boundaries, smallCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Strategy.Validate(env.Model, 4); err != nil {
		t.Fatalf("invalid strategy: %v", err)
	}
	if res.BestLatency <= 0 || math.IsInf(res.BestLatency, 0) {
		t.Fatalf("bad best latency %g", res.BestLatency)
	}
	if len(res.Episodes) != 40 {
		t.Errorf("episode history %d, want 40", len(res.Episodes))
	}
	// The recorded best latency must be reproducible by the simulator
	// (modulo the trace instant).
	lat, _, err := env.Latency(res.Strategy, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Fatal("strategy does not execute")
	}
}

func TestSearchBeatsEqualSplitOnHeterogeneous(t *testing.T) {
	// On a heterogeneous fleet, OSDS must comfortably beat equal-split over
	// the same partition scheme.
	env := testEnv(device.Xavier, device.Xavier, device.Nano, device.Nano)
	boundaries := strategy.PoolBoundaries(env.Model)
	res, err := Search(env, boundaries, smallCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	eq := &strategy.Strategy{Boundaries: boundaries}
	for v := 0; v+1 < len(boundaries); v++ {
		h := strategy.VolumeHeight(env.Model, boundaries, v)
		eq.Splits = append(eq.Splits, strategy.EqualCuts(h, 4))
	}
	latOSDS, _, err := env.Latency(res.Strategy, 0)
	if err != nil {
		t.Fatal(err)
	}
	latEq, _, err := env.Latency(eq, 0)
	if err != nil {
		t.Fatal(err)
	}
	if latOSDS >= latEq {
		t.Errorf("OSDS %.4gs not better than equal split %.4gs", latOSDS, latEq)
	}
}

func TestTrainerFinetune(t *testing.T) {
	env := testEnv(device.Nano, device.Nano, device.Nano, device.Nano)
	boundaries := strategy.PoolBoundaries(env.Model)
	tr, err := NewTrainer(env, boundaries, smallCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	tr.Run()
	_, before := tr.Best()

	// Network shifts: all links drop to 20 Mbps.
	slow := &network.Network{Requester: network.DefaultLink(network.Constant(20))}
	for range env.Devices {
		slow.Providers = append(slow.Providers, network.DefaultLink(network.Constant(20)))
	}
	env2 := &sim.Env{Model: env.Model, Devices: env.Devices, Net: slow}
	res := tr.Finetune(env2, 10)
	if res.Strategy == nil {
		t.Fatal("finetune found no strategy")
	}
	if err := res.Strategy.Validate(env2.Model, 4); err != nil {
		t.Fatal(err)
	}
	if res.BestLatency <= before {
		// Slower network must mean slower inference; the tracker was reset.
		t.Errorf("finetune latency %g not above fast-network %g", res.BestLatency, before)
	}
}

func TestNewTrainerErrors(t *testing.T) {
	env := testEnv(device.Nano)
	if _, err := NewTrainer(env, []int{0, 18}, smallCfg(4)); err == nil {
		t.Error("single provider must error")
	}
	env = testEnv(device.Nano, device.Nano)
	if _, err := NewTrainer(env, []int{0}, smallCfg(5)); err == nil {
		t.Error("bad boundaries must error")
	}
}

func TestConfigDefaults(t *testing.T) {
	env := testEnv(device.Nano, device.Nano)
	tr, err := NewTrainer(env, strategy.PoolBoundaries(env.Model), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.release()
	c, a := tr.cfg, tr.agent.Cfg
	if c.Episodes != 4000 || c.Batch != 64 || a.Gamma != 0.99 {
		t.Errorf("paper defaults wrong: %+v, agent %+v", c, a)
	}
	if c.SigmaSq != 0.1 || a.ActorLR != 1e-4 || a.CriticLR != 1e-3 {
		t.Errorf("paper defaults wrong: %+v, agent %+v", c, a)
	}
	if len(c.Hidden) != 3 || c.Hidden[0] != 400 || len(a.Hidden) != 3 || a.Hidden[0] != 400 {
		t.Errorf("paper actor sizes wrong: %v, agent %v", c.Hidden, a.Hidden)
	}
}

func TestStateNormalisation(t *testing.T) {
	env := testEnv(device.Nano, device.Nano, device.Nano, device.Nano)
	tr, err := NewTrainer(env, strategy.PoolBoundaries(env.Model), smallCfg(6))
	if err != nil {
		t.Fatal(err)
	}
	vol := strategy.Volume(env.Model, tr.boundaries, 0)
	st := make([]float64, 8)
	tr.state(st, []float64{0.01, 0.02, 0, 0}, vol)
	if len(st) != 8 {
		t.Fatalf("state dim %d, want providers+4", len(st))
	}
	for i, v := range st {
		if math.IsNaN(v) || math.Abs(v) > 10 {
			t.Errorf("state[%d] = %g badly scaled", i, v)
		}
	}
}

// TestEpisodeAllocs: once a trainer's buffers, its replay storage, the
// device-latency cache and the plan memo have warmed up, an OSDS episode
// that sets no new best allocates nothing — under the latency objective,
// and under the throughput objective, whose pipelined score recompiles the
// trainer's one strategy in place and reuses the plan's serving state.
func TestEpisodeAllocs(t *testing.T) {
	env := testEnv(device.Xavier, device.Nano, device.TX2, device.Nano)
	for _, obj := range []sim.Objective{nil, sim.ThroughputObjective{}} {
		cfg := smallCfg(3)
		cfg.Objective = obj
		tr, err := NewTrainer(env, strategy.PoolBoundaries(env.Model), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			tr.runEpisode(0.5, -1)
		}
		got := testing.AllocsPerRun(50, func() {
			if score, strat := tr.runEpisode(0.5, -1); strat == nil || math.IsInf(score, 0) {
				t.Fatal("episode failed")
			}
		})
		if got != 0 {
			t.Errorf("%s objective: %.0f allocations per episode, want 0", sim.DefaultObjective(obj).Name(), got)
		}
	}
}
