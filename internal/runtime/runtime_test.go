package runtime

import (
	"fmt"
	"os"
	"slices"
	"sort"
	"testing"

	"distredge/internal/cnn"
	"distredge/internal/device"
	"distredge/internal/network"
	"distredge/internal/sim"
	"distredge/internal/strategy"
	"distredge/internal/transport"
)

func testEnv(types ...device.Type) *sim.Env {
	devs := device.Fleet(types...)
	net := &network.Network{Requester: network.DefaultLink(network.Constant(200))}
	for range devs {
		net.Providers = append(net.Providers, network.DefaultLink(network.Constant(200)))
	}
	return &sim.Env{Model: cnn.VGG16(), Devices: device.AsModels(devs), Net: net}
}

// simPipelined is the simulator scenario the differential tests predict
// with: one tenant's images from time 0, `window` in flight, step batching
// off, raw wire bytes.
func simPipelined(images, window int) sim.Scenario {
	return sim.Scenario{Tenants: []sim.TenantSpec{{Images: images}}, Window: window, Batch: 1}
}

// quarantined returns the providers cl's recoveries removed.
func quarantined(cl *Cluster) []int {
	_, _, _, q := cl.Recovery()
	return q
}

// stream serves images through cl, window in flight, with the given drops:
// simPipelined under the cluster's own Batch and Recover, so Serve runs it.
func stream(cl *Cluster, images, window int, events ...sim.ChurnEvent) (sim.ServeResult, error) {
	sc := simPipelined(images, window)
	sc.Batch, sc.Recover, sc.Events = cl.opts.Batch, cl.opts.Recover, events
	return cl.Serve(sc)
}

func equalStrategy(env *sim.Env, boundaries []int) *strategy.Strategy {
	s := &strategy.Strategy{Boundaries: boundaries}
	for v := 0; v+1 < len(boundaries); v++ {
		h := strategy.VolumeHeight(env.Model, boundaries, v)
		s.Splits = append(s.Splits, strategy.EqualCuts(h, env.NumProviders()))
	}
	return s
}

// testTransport builds a fresh transport of the kind under test. The
// DISTREDGE_TEST_TRANSPORT environment variable selects the suite-wide
// default — "inproc" (the default: fast, race-clean, no socket timing),
// "tcp" (binary codec) or "tcp+deflate" — so CI runs
// the same suites over sockets and over channels. Tests that pin a
// transport (equivalence, shaped/chaos differentials) construct their own.
func testTransport() transport.Transport {
	switch v := os.Getenv("DISTREDGE_TEST_TRANSPORT"); v {
	case "", "inproc":
		return transport.NewInproc()
	case "tcp":
		return transport.NewTCP(nil)
	case "tcp+deflate":
		return transport.NewTCP(transport.Deflate())
	default:
		panic(fmt.Sprintf("unknown DISTREDGE_TEST_TRANSPORT %q (want inproc|tcp|tcp+deflate)", v))
	}
}

func fastOpts() Options {
	return Options{TimeScale: 0.002, BytesScale: 0.001, Transport: testTransport()}
}

// checkPlanWiring asserts the plan is closed under "who sends which rows to
// whom": every Need of every step — the FC step's and the requester's Await
// included — is fed by exactly one Route addressed to that consumer on the
// step producing that volume (Scatter playing the requester's routes), every
// Route feeds a Need, and no step routes rows outside its own part. It
// returns how many of the matched routes a provider addressed to itself.
func checkPlanWiring(t *testing.T, plan *Plan) (selfRoutes int) {
	t.Helper()
	type chunk struct{ dest, volume, lo, hi int }
	routed := map[chunk]int{}
	for k, nd := range plan.Scatter {
		routed[chunk{plan.ScatterDest[k], nd.Volume, nd.Lo, nd.Hi}]++
	}
	for _, pp := range plan.Providers {
		for _, st := range pp.Steps {
			for _, r := range st.Routes {
				routed[chunk{r.Dest, st.Volume, r.Lo, r.Hi}]++
				if r.Lo < st.Part.Lo || r.Hi > st.Part.Hi || r.Lo >= r.Hi {
					t.Errorf("provider %d volume %d: route %+v outside its part %v", pp.Index, st.Volume, r, st.Part)
				}
				if r.Dest == pp.Index {
					selfRoutes++
				}
			}
		}
	}
	feed := func(dest int, nd Need) {
		c := chunk{dest, nd.Volume, nd.Lo, nd.Hi}
		if routed[c] != 1 {
			t.Errorf("need %+v of %d is fed by %d routes, want exactly 1", nd, dest, routed[c])
		}
		delete(routed, c)
	}
	for _, pp := range plan.Providers {
		for _, st := range pp.Steps {
			for _, nd := range st.Needs {
				feed(pp.Index, nd)
			}
		}
	}
	for _, nd := range plan.Await {
		feed(RequesterID, nd)
	}
	for c := range routed {
		t.Errorf("route %+v feeds no need", c)
	}
	return selfRoutes
}

func TestBuildPlanCoverage(t *testing.T) {
	env := testEnv(device.Xavier, device.Nano, device.TX2, device.Nano)
	// Equal cuts leave last parts of 1, 2, 2, 2 rows: a three-way tie for
	// the FC owner, which must go to the lowest index. The uneven split has
	// a clear owner (provider 3).
	uneven := &strategy.Strategy{
		Boundaries: []int{0, 10, 14, 18},
		Splits:     [][]int{{4, 12, 20}, {2, 6, 10}, {1, 2, 4}},
	}
	for _, tc := range []struct {
		name  string
		strat *strategy.Strategy
		owner int
	}{
		{"equal", equalStrategy(env, []int{0, 10, 14, 18}), 1},
		{"uneven", uneven, 3},
	} {
		name, s := tc.name, tc.strat
		plan, err := BuildPlan(env, s, fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Providers) != 4 {
			t.Fatalf("%s: plans = %d, want 4", name, len(plan.Providers))
		}
		if len(plan.Scatter) == 0 || len(plan.Await) == 0 {
			t.Fatalf("%s: plan must scatter inputs and await results", name)
		}
		// Every step must have needs and a positive compute time.
		for _, pp := range plan.Providers {
			for _, st := range pp.Steps {
				if len(st.Needs) == 0 {
					t.Errorf("%s: provider %d volume %d: no needs", name, pp.Index, st.Volume)
				}
				if st.ComputeSec <= 0 {
					t.Errorf("%s: provider %d volume %d: no compute", name, pp.Index, st.Volume)
				}
				if st.RowBytes < 1 {
					t.Errorf("%s: provider %d volume %d: bad row bytes", name, pp.Index, st.Volume)
				}
			}
		}
		if checkPlanWiring(t, plan) == 0 {
			t.Errorf("%s: no provider keeps rows for itself", name)
		}
		// VGG-16 has FC layers: exactly one provider carries the synthetic
		// FC step, and the await set is that single chunk.
		var fcOwners []int
		for _, pp := range plan.Providers {
			for _, st := range pp.Steps {
				if st.Volume == s.NumVolumes() {
					fcOwners = append(fcOwners, pp.Index)
				}
			}
		}
		if len(plan.Await) != 1 {
			t.Errorf("%s: await = %v, want the single FC result", name, plan.Await)
		}
		// The geometry, the simulator's timeline and the runtime's plan name
		// the same owner, and its own last part reaches its FC step through
		// a route to itself.
		geo, err := strategy.CompileGeometry(env.Model, s, 4)
		if err != nil {
			t.Fatal(err)
		}
		events, _, err := env.Timeline(s, 0)
		if err != nil {
			t.Fatal(err)
		}
		simOwner := -1
		for _, ev := range events {
			if ev.Kind == sim.EventFC {
				simOwner = ev.Device
			}
		}
		if geo.FCOwner != tc.owner || simOwner != tc.owner || len(fcOwners) != 1 || fcOwners[0] != tc.owner {
			t.Fatalf("%s: FC owner: geometry %d, timeline %d, runtime %v, want %d everywhere",
				name, geo.FCOwner, simOwner, fcOwners, tc.owner)
		}
		ownPart := geo.Volumes[s.NumVolumes()-1].Parts[tc.owner]
		lastStep := plan.Providers[tc.owner].Steps[len(plan.Providers[tc.owner].Steps)-2]
		if !slices.Contains(lastStep.Routes, Route{Dest: tc.owner, Lo: ownPart.Lo, Hi: ownPart.Hi}) {
			t.Errorf("%s: owner %d routes %v: its own rows %v never reach its FC step", name, tc.owner, lastStep.Routes, ownPart)
		}
	}
}

func TestBuildPlanFullyConvolutional(t *testing.T) {
	devs := device.Fleet(device.Nano, device.Nano)
	net := &network.Network{Requester: network.DefaultLink(network.Constant(100))}
	for range devs {
		net.Providers = append(net.Providers, network.DefaultLink(network.Constant(100)))
	}
	env := &sim.Env{Model: cnn.YOLOv2(), Devices: device.AsModels(devs), Net: net}
	s := equalStrategy(env, strategy.PoolBoundaries(env.Model))
	plan, err := BuildPlan(env, s, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	// No FC: both providers return rows directly.
	if len(plan.Await) != 2 {
		t.Errorf("await = %d chunks, want 2", len(plan.Await))
	}
	checkPlanWiring(t, plan)
}

func TestBuildPlanRejectsInvalid(t *testing.T) {
	env := testEnv(device.Nano, device.Nano)
	bad := &strategy.Strategy{Boundaries: []int{0, 5}}
	if _, err := BuildPlan(env, bad, fastOpts()); err == nil {
		t.Fatal("invalid strategy must be rejected")
	}
}

func TestClusterRunsImages(t *testing.T) {
	env := testEnv(device.Xavier, device.Nano, device.TX2, device.Nano)
	s := equalStrategy(env, []int{0, 10, 14, 18})
	cluster, err := Deploy(env, s, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if cluster.NumProviders() != 4 {
		t.Fatalf("providers = %d", cluster.NumProviders())
	}
	stats, err := stream(cluster, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Images != 5 || stats.Completed != 5 || len(stats.PerImageSec) != 5 {
		t.Fatalf("stats wrong: %+v", stats)
	}
	if stats.IPS <= 0 {
		t.Fatal("IPS must be positive")
	}
	for i, sec := range stats.PerImageSec {
		if sec <= 0 {
			t.Errorf("image %d latency %gs", i, sec)
		}
	}
}

// lowerQuartile is the nearest-rank lower quartile of a run's per-image
// latencies — how these tests read a latency off the runtime and, where the
// prediction varies by image, off the sim. What the host adds to an image
// (a 60 ms stall, a quarter second of late timers: one test run in a few
// hundred meets one) it only ever adds, so the low end of the run is the
// emulator's own figure; the repo benchmark reports timings the same way.
func lowerQuartile(perImage []float64) float64 {
	xs := append([]float64(nil), perImage...)
	sort.Float64s(xs)
	return xs[max(int(0.25*float64(len(xs))+0.5), 1)-1]
}

func TestClusterSlowDeviceShowsInLatency(t *testing.T) {
	// The same strategy on a fleet with an (emulated) slower device must be
	// slower end-to-end — the sleep emulation is really on the path — and by
	// the factor the simulator predicts. At this time scale every compute
	// step and transfer is shorter than the host's ~1 ms timer tick; with
	// relative sleeps both fleets rounded to the same ticks and the order
	// itself failed one run in five.
	fast := testEnv(device.Xavier, device.Xavier)
	slow := testEnv(device.Nano, device.Nano)
	bound := []int{0, 10, 14, 18}
	const timeScale, bytesScale = 0.02, 0.001

	// Per-image wall latency over the env's links, charged as the sim charges
	// them; the links are constant, so the sim predicts one latency for
	// every image.
	run := func(env *sim.Env) float64 {
		opts := Options{
			TimeScale:         timeScale,
			BytesScale:        bytesScale,
			Batch:             1,
			HeartbeatInterval: -1, // charged links must not delay liveness
			Transport:         transport.NewShaped(testTransport(), env.Net, timeScale, bytesScale),
		}
		cl, err := Deploy(env, equalStrategy(env, bound), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		st, err := stream(cl, 9, 1)
		if err != nil {
			t.Fatal(err)
		}
		return lowerQuartile(st.PerImageSec) * timeScale
	}
	predict := func(env *sim.Env) float64 {
		res, err := env.Serve(equalStrategy(env, bound), simPipelined(9, 1))
		if err != nil {
			t.Fatal(err)
		}
		return res.P50LatMS / 1e3 * timeScale
	}
	// What lag compensation leaves outside the sim's account is the last
	// stage's timer overshoot (nothing to one tick, ~1.2 ms) and the real
	// hand-offs no sleep absorbs (measured 0.1-1.1 ms on the fast fleet,
	// 0.1-0.9 ms on the slow one). Each fleet must land between the sim's
	// latency and that much above it, which holds the slow-to-fast ratio
	// within [1.40, 3.86] around the sim's 2.83 (measured 1.7-3.2).
	const residual = 1.5e-3
	pf, ps := predict(fast), predict(slow)
	f, s := run(fast), run(slow)
	t.Logf("wall latency: fast %.2f ms (sim %.2f), slow %.2f ms (sim %.2f); ratio %.2f, sim %.2f",
		f*1e3, pf*1e3, s*1e3, ps*1e3, s/f, ps/pf)
	if s <= f {
		t.Errorf("slow fleet (%.2f ms) not slower than fast fleet (%.2f ms)", s*1e3, f*1e3)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{{"fast", f, pf}, {"slow", s, ps}} {
		if c.got < 0.98*c.want || c.got > c.want+residual {
			t.Errorf("%s fleet: %.2f ms per image, want the sim's %.2f ms plus at most %.1f ms",
				c.name, c.got*1e3, c.want*1e3, residual*1e3)
		}
	}
}

func TestClusterOffloadShape(t *testing.T) {
	// Offload strategy: only one provider computes; the run must still
	// complete (routes skip idle providers).
	env := testEnv(device.Xavier, device.Pi3)
	b := strategy.SingleVolume(env.Model)
	h := strategy.VolumeHeight(env.Model, b, 0)
	s := &strategy.Strategy{Boundaries: b, Splits: [][]int{strategy.AllOnProvider(h, 2, 0)}}
	cl, err := Deploy(env, s, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := stream(cl, 2, 1); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsZeroImages(t *testing.T) {
	env := testEnv(device.Nano, device.Nano)
	s := equalStrategy(env, []int{0, 18})
	cl, err := Deploy(env, s, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := stream(cl, 0, 1); err == nil {
		t.Fatal("zero images must error")
	}
}

func TestCloseIdempotent(t *testing.T) {
	env := testEnv(device.Nano, device.Nano)
	s := equalStrategy(env, []int{0, 18})
	cl, err := Deploy(env, s, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	cl.Close() // must not panic
}

func TestClusterStats(t *testing.T) {
	env := testEnv(device.Xavier, device.Pi3)
	s := offloadLikeStrategy(env)
	cl, err := Deploy(env, s, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := stream(cl, 4, 1); err != nil {
		t.Fatal(err)
	}
	stats := cl.Stats()
	if len(stats) != 2 {
		t.Fatalf("stats = %d entries", len(stats))
	}
	// The Xavier did all the work; the Pi3 was never scheduled.
	if stats[0].ComputeSec <= 0 || stats[0].StepsExecuted == 0 {
		t.Errorf("active provider shows no work: %+v", stats[0])
	}
	if stats[1].ComputeSec != 0 || stats[1].StepsExecuted != 0 {
		t.Errorf("idle provider shows work: %+v", stats[1])
	}
	if stats[0].ChunksReceived == 0 || stats[0].ChunksSent == 0 {
		t.Errorf("active provider moved no chunks: %+v", stats[0])
	}
}

func offloadLikeStrategy(env *sim.Env) *strategy.Strategy {
	b := strategy.SingleVolume(env.Model)
	h := strategy.VolumeHeight(env.Model, b, 0)
	return &strategy.Strategy{Boundaries: b, Splits: [][]int{strategy.AllOnProvider(h, env.NumProviders(), 0)}}
}
