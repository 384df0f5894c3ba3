package gateway

import (
	"testing"
	"time"

	"distredge/internal/cnn"
	"distredge/internal/device"
	"distredge/internal/network"
	"distredge/internal/runtime"
	"distredge/internal/sim"
	"distredge/internal/splitter"
	"distredge/internal/strategy"
	"distredge/internal/transport"
)

func diffEnv() *sim.Env {
	devs := device.Fleet(device.Xavier, device.Nano, device.TX2, device.Nano)
	net := &network.Network{Requester: network.DefaultLink(network.Constant(200))}
	for range devs {
		net.Providers = append(net.Providers, network.DefaultLink(network.Constant(200)))
	}
	return &sim.Env{Model: cnn.VGG16(), Devices: device.AsModels(devs), Net: net}
}

func diffStrategy(env *sim.Env, boundaries []int) *strategy.Strategy {
	s := &strategy.Strategy{Boundaries: boundaries}
	for v := 0; v+1 < len(boundaries); v++ {
		h := strategy.VolumeHeight(env.Model, boundaries, v)
		s.Splits = append(s.Splits, strategy.EqualCuts(h, env.NumProviders()))
	}
	return s
}

// TestGatewayDifferentialSimVsRuntime is the tentpole's acceptance test:
// the simulator's multi-stream mirror predicts that weighted fair queueing
// beats FIFO on the small high-weight tenant's p95 when a heavy tenant's
// burst shares the fleet, and the real gateway over a shaped runtime
// cluster — same network, same window, same pick rule — must reproduce
// that ordering.
func TestGatewayDifferentialSimVsRuntime(t *testing.T) {
	env := diffEnv()
	s := diffStrategy(env, []int{0, 10, 14, 18})
	tenants := []sim.TenantSpec{
		{Name: "heavy", Images: 16, Weight: 1},
		{Name: "small", Images: 4, Weight: 4},
	}
	const window = 4

	// Offline prediction.
	simSmall := map[string]float64{}
	for _, policy := range []string{sim.AdmitFIFO, sim.AdmitWFQ} {
		res, err := env.Serve(s, sim.Scenario{Tenants: tenants, Policy: policy, Window: window, Batch: 1})
		if err != nil {
			t.Fatal(err)
		}
		simSmall[policy] = res.Tenants[1].P95LatMS
	}
	if !(simSmall[sim.AdmitWFQ] < simSmall[sim.AdmitFIFO]) {
		t.Fatalf("simulator must predict wfq beats fifo on the small tenant's p95: wfq %.1fms vs fifo %.1fms",
			simSmall[sim.AdmitWFQ], simSmall[sim.AdmitFIFO])
	}

	// Shaped-runtime reproduction through the real gateway.
	const timeScale, bytesScale = 0.05, 0.001
	rtRun := func(policy string) float64 {
		t.Helper()
		opts := runtime.Options{
			TimeScale:         timeScale,
			BytesScale:        bytesScale,
			HeartbeatInterval: -1,
			Transport:         transport.NewShaped(transport.NewInproc(), env.Net, timeScale, bytesScale, 0),
		}
		cl, err := runtime.Deploy(env, s, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		cfgs := make([]TenantConfig, len(tenants))
		for i, ts := range tenants {
			cfgs[i] = TenantConfig{Name: ts.Name, Weight: ts.Weight}
		}
		g, err := New(cl, Config{Window: window, Policy: policy}, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		// The sim's burst model: every tenant's whole backlog enqueued at
		// the stream start, heavy first (FIFO ties go to the lower index
		// there; lower sequence numbers here).
		var chs []<-chan Result
		for _, ts := range tenants {
			for j := 0; j < ts.Images; j++ {
				ch, err := g.Enqueue(ts.Name)
				if err != nil {
					t.Fatal(err)
				}
				chs = append(chs, ch)
			}
		}
		for i, ch := range chs {
			select {
			case r := <-ch:
				if r.Err != nil {
					t.Fatalf("%s request %d: %v", policy, i, r.Err)
				}
			case <-time.After(2 * time.Minute):
				t.Fatalf("%s request %d never completed", policy, i)
			}
		}
		sum := g.Summary()
		g.Close()
		if sum[0].Completed != 16 || sum[1].Completed != 4 {
			t.Fatalf("%s completions: heavy %d small %d, want 16/4", policy, sum[0].Completed, sum[1].Completed)
		}
		return sum[1].P95LatMS
	}
	rtFIFO := rtRun(PolicyFIFO)
	rtWFQ := rtRun(PolicyWFQ)
	t.Logf("sim small p95: fifo %.1fms wfq %.1fms | runtime small p95: fifo %.1fms wfq %.1fms",
		simSmall[sim.AdmitFIFO], simSmall[sim.AdmitWFQ], rtFIFO, rtWFQ)
	if !(rtWFQ < rtFIFO) {
		t.Errorf("shaped runtime does not reproduce the predicted ordering: wfq small p95 %.1fms vs fifo %.1fms",
			rtWFQ, rtFIFO)
	}
}

// TestGatewaySurvivesProviderDeath is gateway × churn: two tenants share a
// fleet through the real gateway and a provider dies mid-burst. Recovery is
// a property of the cluster, so with Options.Recover every request of every
// tenant still completes (each Submit re-scatters its own image on the
// healed deployment and keeps its gateway slot), and without it the failure
// is sticky and requests fail. The simulator serving the same tenants with
// one DeviceDrop predicts the same split; only the ordering is compared.
func TestGatewaySurvivesProviderDeath(t *testing.T) {
	env := diffEnv()
	s := diffStrategy(env, []int{0, 10, 14, 18})
	tenants := []sim.TenantSpec{
		{Name: "heavy", Images: 24, Weight: 1},
		{Name: "small", Images: 8, Weight: 4},
	}
	const window, total = 4, 32

	// Offline prediction.
	sc := sim.Scenario{Tenants: tenants, Policy: sim.AdmitWFQ, Window: window, Batch: 1}
	base, err := env.Serve(s, sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.Events = []sim.ChurnEvent{{At: base.TotalSec * 0.3, Kind: sim.DeviceDrop, Device: 1}}
	simOff, err := env.Serve(s, sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.Recover, sc.Replan = true, splitter.BalancedReplan
	simOn, err := env.Serve(s, sc)
	if err != nil {
		t.Fatal(err)
	}
	if simOn.Completed != total || simOn.Failed != 0 || simOff.Failed == 0 {
		t.Fatalf("simulator must predict recovery serves everything and no recovery loses requests: on %d completed %d failed, off %d failed",
			simOn.Completed, simOn.Failed, simOff.Failed)
	}

	// The real gateway over a real cluster, a provider killed mid-burst.
	rtRun := func(recover bool) (failed int) {
		t.Helper()
		cl, err := runtime.Deploy(env, s, runtime.Options{
			TimeScale:         0.1,
			BytesScale:        0.001,
			Recover:           recover,
			HeartbeatInterval: 15 * time.Millisecond,
			HeartbeatMisses:   3,
			Transport:         transport.NewPooledInproc(nil),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		cfgs := make([]TenantConfig, len(tenants))
		for i, ts := range tenants {
			cfgs[i] = TenantConfig{Name: ts.Name, Weight: ts.Weight}
		}
		g, err := New(cl, Config{Window: window, Policy: PolicyWFQ}, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		kill := time.AfterFunc(40*time.Millisecond, func() { cl.KillProvider(1) })
		defer kill.Stop()
		var chs []<-chan Result
		for _, ts := range tenants {
			for j := 0; j < ts.Images; j++ {
				ch, err := g.Enqueue(ts.Name)
				if err != nil {
					t.Fatal(err)
				}
				chs = append(chs, ch)
			}
		}
		// Exactly one Result per Enqueue, whatever happened to the fleet.
		for i, ch := range chs {
			select {
			case r := <-ch:
				if r.Err != nil {
					failed++
					if recover {
						t.Errorf("request %d (%s) failed on a recovering cluster: %v", i, r.Tenant, r.Err)
					}
				}
			case <-time.After(time.Minute):
				t.Fatalf("request %d never got its Result", i)
			}
		}
		summed := 0
		for _, ts := range g.Summary() {
			summed += ts.Failed
		}
		if summed != failed {
			t.Errorf("summary counts %d failed, results carried %d", summed, failed)
		}
		if n, _, _, q := cl.Recovery(); recover && (n != 1 || len(q) != 1 || q[0] != 1) {
			t.Errorf("recovering cluster: %d recoveries, quarantined %v; want 1 and [1]", n, q)
		}
		return failed
	}
	if failed := rtRun(true); failed != 0 {
		t.Errorf("recovering cluster failed %d of %d requests, sim predicts 0", failed, total)
	}
	if failed := rtRun(false); failed == 0 {
		t.Errorf("sticky cluster failed no request after a mid-burst kill, sim predicts %d", simOff.Failed)
	}
}
