package gateway

import (
	"testing"
	"time"

	"distredge/internal/cnn"
	"distredge/internal/device"
	"distredge/internal/network"
	"distredge/internal/runtime"
	"distredge/internal/sim"
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
