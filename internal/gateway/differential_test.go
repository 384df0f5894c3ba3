package gateway_test

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

// TestGatewayDifferentialSimVsRuntime: a heavy tenant's burst shares the
// fleet with a small high-weight tenant, and one Scenario per policy runs
// on both executors. The simulator predicts that weighted fair queueing
// beats FIFO on the small tenant's p95, and the real gateway over a shaped
// runtime cluster — same network, same window, same pick rule — must
// reproduce that ordering.
func TestGatewayDifferentialSimVsRuntime(t *testing.T) {
	env := diffEnv()
	s := diffStrategy(env, []int{0, 10, 14, 18})
	tenants := []sim.TenantSpec{
		{Name: "heavy", Images: 16, Weight: 1},
		{Name: "small", Images: 4, Weight: 4},
	}
	const timeScale, bytesScale = 0.05, 0.001
	simP95, rtP95 := map[string]float64{}, map[string]float64{}
	for _, policy := range []string{sim.AdmitFIFO, sim.AdmitWFQ} {
		sc := sim.Scenario{Tenants: tenants, Policy: policy, Window: 4, Batch: 1}
		pred, err := env.Serve(s, sc)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := runtime.Deploy(env, s, runtime.Options{
			TimeScale:         timeScale,
			BytesScale:        bytesScale,
			Batch:             1,
			HeartbeatInterval: -1,
			Transport:         transport.NewShaped(transport.NewInproc(), env.Net, timeScale, bytesScale),
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := cl.Serve(sc)
		cl.Close()
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if got.Failed != 0 || got.Tenants[0].Images != 16 || got.Tenants[1].Images != 4 {
			t.Fatalf("%s: %d failed, heavy %d small %d completed, want 0 and 16/4",
				policy, got.Failed, got.Tenants[0].Images, got.Tenants[1].Images)
		}
		simP95[policy], rtP95[policy] = pred.Tenants[1].P95LatMS, got.Tenants[1].P95LatMS
	}
	t.Logf("small tenant's p95 (model ms): sim fifo %.1f wfq %.1f | runtime fifo %.1f wfq %.1f",
		simP95[sim.AdmitFIFO], simP95[sim.AdmitWFQ], rtP95[sim.AdmitFIFO], rtP95[sim.AdmitWFQ])
	if !(simP95[sim.AdmitWFQ] < simP95[sim.AdmitFIFO]) {
		t.Fatalf("simulator must predict wfq beats fifo on the small tenant's p95: wfq %.1fms vs fifo %.1fms",
			simP95[sim.AdmitWFQ], simP95[sim.AdmitFIFO])
	}
	if !(rtP95[sim.AdmitWFQ] < rtP95[sim.AdmitFIFO]) {
		t.Errorf("shaped runtime does not reproduce the predicted ordering: wfq small p95 %.1fms vs fifo %.1fms",
			rtP95[sim.AdmitWFQ], rtP95[sim.AdmitFIFO])
	}
}

// TestGatewaySurvivesProviderDeath is gateway × churn: two tenants share a
// fleet through the gateway and a provider drops mid-burst, one Scenario
// run by both executors. Recovery is a property of the cluster, so with a
// Replan every request of every tenant still completes (each Submit
// re-scatters its own image on the healed deployment and keeps its gateway
// slot), and without it the failure is sticky and requests fail. The
// simulator predicts the same split; only the ordering is compared.
func TestGatewaySurvivesProviderDeath(t *testing.T) {
	env := diffEnv()
	s := diffStrategy(env, []int{0, 10, 14, 18})
	const total = 32
	sc := sim.Scenario{
		Tenants: []sim.TenantSpec{
			{Name: "heavy", Images: 24, Weight: 1},
			{Name: "small", Images: 8, Weight: 4},
		},
		Policy: sim.AdmitWFQ, Window: 4, Batch: 1,
	}
	base, err := env.Serve(s, sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.Events = []sim.ChurnEvent{{At: base.TotalSec * 0.3, Kind: sim.DeviceDrop, Device: 1}}
	for _, recover := range []bool{true, false} {
		sc.Replan = nil
		if recover {
			sc.Replan = splitter.BalancedReplan
		}
		pred, err := env.Serve(s, sc)
		if err != nil {
			t.Fatal(err)
		}
		if recover && (pred.Completed != total || pred.Failed != 0) || !recover && pred.Failed == 0 {
			t.Fatalf("recover=%v: simulator predicts %d completed, %d failed; want all served with recovery and losses without",
				recover, pred.Completed, pred.Failed)
		}
		cl, err := runtime.Deploy(env, s, runtime.Options{
			TimeScale:         0.1,
			BytesScale:        0.001,
			Batch:             1,
			Replan:            sc.Replan,
			HeartbeatInterval: 15 * time.Millisecond,
			HeartbeatMisses:   3,
			Transport:         transport.NewInproc(),
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := cl.Serve(sc)
		n, _, _, q := cl.Recovery()
		cl.Close()
		// Exactly one outcome per request, whatever happened to the fleet.
		if got.Completed+got.Failed != total {
			t.Errorf("recover=%v: %d completed + %d failed, want %d requests accounted for", recover, got.Completed, got.Failed, total)
		}
		if recover {
			if err != nil || got.Failed != 0 {
				t.Errorf("recovering cluster failed %d of %d requests (%v), sim predicts 0", got.Failed, total, err)
			}
			if n != 1 || len(q) != 1 || q[0] != 1 {
				t.Errorf("recovering cluster: %d recoveries, quarantined %v; want 1 and [1]", n, q)
			}
		} else if got.Failed == 0 {
			t.Errorf("sticky cluster failed no request after a mid-burst drop at %.3fs, sim predicts %d", sc.Events[0].At, pred.Failed)
		}
	}
}
