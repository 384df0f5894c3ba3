package runtime

import (
	"math"
	"testing"
	"time"

	"distredge/internal/device"
	"distredge/internal/sim"
	"distredge/internal/splitter"
	"distredge/internal/strategy"
)

// TestServeRefusesScenarios checks that what a deployed fleet cannot run as
// scripted is refused before anything happens: no image is submitted and
// no provider is killed. A drop time that would not convert to a
// non-negative wall-clock Duration is the dangerous case — converted
// anyway it overflows to a negative Duration and kills the provider at
// t = 0.
func TestServeRefusesScenarios(t *testing.T) {
	env := testEnv(device.Nano, device.Nano)
	s := equalStrategy(env, []int{0, 18})
	opts := fastOpts()
	opts.TimeScale, opts.Batch = 0.1, 1
	cl, err := Deploy(env, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	drop := func(at float64, dev int) sim.ChurnEvent {
		return sim.ChurnEvent{At: at, Kind: sim.DeviceDrop, Device: dev}
	}
	for _, c := range []struct {
		name string
		edit func(*sim.Scenario)
	}{
		{"NaN drop time", func(sc *sim.Scenario) { sc.Events = []sim.ChurnEvent{drop(math.NaN(), 0)} }},
		{"negative drop time", func(sc *sim.Scenario) { sc.Events = []sim.ChurnEvent{drop(-1, 0)} }},
		{"infinite drop time", func(sc *sim.Scenario) { sc.Events = []sim.ChurnEvent{drop(math.Inf(1), 0)} }},
		{"drop time overflowing a Duration", func(sc *sim.Scenario) { sc.Events = []sim.ChurnEvent{drop(1e300, 0)} }},
		{"device past the fleet", func(sc *sim.Scenario) { sc.Events = []sim.ChurnEvent{drop(0.5, 2)} }},
		{"negative device", func(sc *sim.Scenario) { sc.Events = []sim.ChurnEvent{drop(0.5, -1)} }},
		{"slow event", func(sc *sim.Scenario) {
			sc.Events = []sim.ChurnEvent{{At: 0.5, Kind: sim.DeviceSlow, Device: 0, Factor: 2}}
		}},
		{"join event", func(sc *sim.Scenario) {
			sc.Events = []sim.ChurnEvent{drop(0.5, 0), {At: 1, Kind: sim.DeviceJoin, Device: 0}}
		}},
		{"nonzero start", func(sc *sim.Scenario) { sc.Start = 1 }},
		{"batch other than deployed", func(sc *sim.Scenario) { sc.Batch = 4 }},
		{"adaptive batch on an unbatched fleet", func(sc *sim.Scenario) { sc.Batch = 0 }},
		{"replan set on the scenario only", func(sc *sim.Scenario) { sc.Replan = splitter.BalancedReplan }},
		{"late enqueue", func(sc *sim.Scenario) { sc.Tenants[0].EnqueueSec = 1 }},
		{"no tenants", func(sc *sim.Scenario) { sc.Tenants = nil }},
		{"unknown policy", func(sc *sim.Scenario) { sc.Policy = "lifo" }},
		{"duplicate tenant names", func(sc *sim.Scenario) {
			sc.Tenants = []sim.TenantSpec{{Name: "a", Images: 1}, {Name: "a", Images: 1}}
		}},
	} {
		sc := sim.Scenario{Tenants: []sim.TenantSpec{{Images: 2}}, Window: 2, Batch: 1}
		c.edit(&sc)
		if res, err := cl.Serve(sc); err == nil {
			t.Errorf("%s: served %+v, want a refusal", c.name, res)
		}
	}
	time.Sleep(20 * time.Millisecond) // a kill that fires at once would have by now
	if n := cl.nextImg.Load(); n != 0 {
		t.Errorf("refused scenarios submitted %d images", n)
	}
	for i, p := range cl.dep.Load().providers {
		select {
		case <-p.done:
			t.Errorf("provider %d was killed by a refused scenario", i)
		default:
		}
	}
	// A drop the fleet can honour runs; 100 s of model time is 10 s of wall
	// clock, so it never fires before the two images are done.
	sc := sim.Scenario{Tenants: []sim.TenantSpec{{Images: 2}}, Window: 2, Batch: 1, Events: []sim.ChurnEvent{drop(100, 0)}}
	if res, err := cl.Serve(sc); err != nil || res.Completed != 2 {
		t.Fatalf("valid scenario: %+v, %v", res, err)
	}

	// The other side: a recovering fleet refuses a scenario that predicts
	// no recovery, and runs one with a re-planner of its own.
	opts.Replan = splitter.BalancedReplan
	healing, err := Deploy(env, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer healing.Close()
	sc.Events = nil
	if res, err := healing.Serve(sc); err == nil {
		t.Errorf("replan set on the cluster only: served %+v, want a refusal", res)
	}
	sc.Replan = func(_ *sim.Env, old *strategy.Strategy, _ []bool) (*strategy.Strategy, error) { return old, nil }
	if res, err := healing.Serve(sc); err != nil || res.Completed != 2 {
		t.Fatalf("replan set on both sides: %+v, %v", res, err)
	}
}

// TestServeAssemblesModelTime checks that a run is reported in model time
// with the simulator's bookkeeping: every image has a positive latency no
// longer than the run, the stream's span covers the last completion, and
// the one tenant sees what the fleet sees.
func TestServeAssemblesModelTime(t *testing.T) {
	env := testEnv(device.Xavier, device.Nano)
	s := equalStrategy(env, []int{0, 10, 18})
	opts := fastOpts()
	opts.TimeScale = 0.05
	cl, err := Deploy(env, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start := time.Now()
	res, err := stream(cl, 6, 2)
	wall := time.Since(start).Seconds()
	if err != nil {
		t.Fatal(err)
	}
	if res.Images != 6 || res.Completed != 6 || res.Failed != 0 || res.FailedAtSec != -1 || res.Policy != sim.AdmitFIFO {
		t.Fatalf("counters wrong: %+v", res)
	}
	// Model time is wall time over the scale.
	if res.TotalSec <= 0 || res.TotalSec > wall/opts.TimeScale {
		t.Errorf("TotalSec %.3f outside (0, %.3f] model seconds", res.TotalSec, wall/opts.TimeScale)
	}
	if got, want := res.IPS, float64(res.Completed)/res.TotalSec; got != want {
		t.Errorf("IPS %.3f, want completed over TotalSec %.3f", got, want)
	}
	for i, sec := range res.PerImageSec {
		if !(sec > 0 && sec <= res.TotalSec) {
			t.Errorf("image %d latency %.3fs outside (0, %.3f]", i, sec, res.TotalSec)
		}
	}
	if len(res.Tenants) != 1 || res.Tenants[0].Name != "tenant0" || res.Tenants[0].Images != 6 {
		t.Fatalf("tenant view wrong: %+v", res.Tenants)
	}
	if tr := res.Tenants[0]; tr.MaxLatMS < res.MaxLatMS || math.Abs(tr.MaxLatMS-res.TotalSec*1e3) > 1e-9 {
		t.Errorf("tenant max %.3fms: want the stream's last completion %.3fms (and no less than the fleet's %.3fms)",
			tr.MaxLatMS, res.TotalSec*1e3, res.MaxLatMS)
	}
}
