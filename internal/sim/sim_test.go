package sim

import (
	"math"
	"testing"

	"distredge/internal/cnn"
	"distredge/internal/device"
	"distredge/internal/network"
	"distredge/internal/strategy"
)

func testEnv(bwMbps float64, types ...device.Type) *Env {
	devs := device.Fleet(types...)
	bws := make([]float64, len(devs))
	for i := range bws {
		bws[i] = bwMbps
	}
	net := &network.Network{Requester: network.DefaultLink(network.Constant(bwMbps))}
	for range devs {
		net.Providers = append(net.Providers, network.DefaultLink(network.Constant(bwMbps)))
	}
	return &Env{Model: cnn.VGG16(), Devices: device.AsModels(devs), Net: net}
}

func equalSplitStrategy(m *cnn.Model, boundaries []int, n int) *strategy.Strategy {
	s := &strategy.Strategy{Boundaries: boundaries}
	for v := 0; v < len(boundaries)-1; v++ {
		h := strategy.VolumeHeight(m, boundaries, v)
		s.Splits = append(s.Splits, strategy.EqualCuts(h, n))
	}
	return s
}

func offloadStrategy(m *cnn.Model, n, target int) *strategy.Strategy {
	b := strategy.SingleVolume(m)
	h := strategy.VolumeHeight(m, b, 0)
	return &strategy.Strategy{Boundaries: b, Splits: [][]int{strategy.AllOnProvider(h, n, target)}}
}

func TestLatencyPositiveAndFinite(t *testing.T) {
	env := testEnv(200, device.Xavier, device.Xavier, device.Nano, device.Nano)
	s := equalSplitStrategy(env.Model, strategy.PoolBoundaries(env.Model), 4)
	lat, bd, err := env.Latency(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 || math.IsInf(lat, 0) || math.IsNaN(lat) {
		t.Fatalf("latency = %g", lat)
	}
	if bd.MaxComp() <= 0 {
		t.Error("expected positive compute in breakdown")
	}
	if bd.MaxTrans() <= 0 {
		t.Error("expected positive transmission in breakdown")
	}
}

func TestOffloadMatchesSingleDeviceModel(t *testing.T) {
	// Offloading everything to one device must cost: input scatter + whole
	// model on that device + result return. No inter-provider traffic.
	env := testEnv(300, device.Xavier, device.Nano)
	target := 0
	s := offloadStrategy(env.Model, 2, target)
	lat, bd, err := env.Latency(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	dev := env.Devices[target]
	comp := device.ModelLatency(dev, env.Model)
	in := env.Net.TransferLatency(network.Requester, target, env.Model.InputBytes(), 0)
	if lat < comp+in {
		t.Errorf("offload latency %g below compute+scatter floor %g", lat, comp+in)
	}
	if math.Abs(bd.PerDevComp[target]-comp) > 1e-9 {
		t.Errorf("compute attribution %g, want %g", bd.PerDevComp[target], comp)
	}
	if bd.PerDevComp[1] != 0 {
		t.Error("idle device must have zero compute")
	}
}

func TestEmptyPartsAreFree(t *testing.T) {
	// A provider given zero rows everywhere must accumulate nothing.
	env := testEnv(200, device.Xavier, device.Pi3)
	s := offloadStrategy(env.Model, 2, 0)
	_, bd, err := env.Latency(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bd.PerDevComp[1] != 0 || bd.PerDevTrans[1] != 0 {
		t.Errorf("idle Pi3 charged comp=%g trans=%g", bd.PerDevComp[1], bd.PerDevTrans[1])
	}
}

func TestTwoFastDevicesBeatOne(t *testing.T) {
	// With a high-bandwidth network, splitting across two compute-bound
	// Nanos should beat offloading to one. (On wide-wave GPUs like Xavier
	// equal-split can lose — that nonlinearity is the paper's whole point —
	// so this check uses the near-linear device.)
	env := testEnv(300, device.Nano, device.Nano)
	single := offloadStrategy(env.Model, 2, 0)
	split := equalSplitStrategy(env.Model, strategy.PoolBoundaries(env.Model), 2)
	latS, _, err := env.Latency(single, 0)
	if err != nil {
		t.Fatal(err)
	}
	latP, _, err := env.Latency(split, 0)
	if err != nil {
		t.Fatal(err)
	}
	if latP >= latS {
		t.Errorf("parallel %gms not faster than offload %gms", latP*1e3, latS*1e3)
	}
}

func TestLayerByLayerPaysMoreTransmission(t *testing.T) {
	// CoEdge-style layer-by-layer splitting must pay much more transmission
	// than a fused single volume (the paper's core critique, Fig. 15).
	env := testEnv(50, device.Nano, device.Nano, device.Nano, device.Nano)
	lbl := equalSplitStrategy(env.Model, strategy.LayerByLayer(env.Model), 4)
	fused := equalSplitStrategy(env.Model, strategy.SingleVolume(env.Model), 4)
	_, bdL, err := env.Latency(lbl, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, bdF, err := env.Latency(fused, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bdL.MaxTrans() < 2*bdF.MaxTrans() {
		t.Errorf("layer-by-layer trans %g not >> fused trans %g", bdL.MaxTrans(), bdF.MaxTrans())
	}
}

func TestHigherBandwidthNeverHurts(t *testing.T) {
	s300 := testEnv(300, device.Nano, device.Nano, device.Nano, device.Nano)
	s50 := testEnv(50, device.Nano, device.Nano, device.Nano, device.Nano)
	strat := equalSplitStrategy(s300.Model, strategy.PoolBoundaries(s300.Model), 4)
	l300, _, err := s300.Latency(strat, 0)
	if err != nil {
		t.Fatal(err)
	}
	l50, _, err := s50.Latency(strat, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l300 > l50 {
		t.Errorf("300Mbps latency %g worse than 50Mbps %g", l300, l50)
	}
}

func TestFullyConvolutionalFinish(t *testing.T) {
	// YOLOv2 has no FC layers; results return directly to the requester.
	devs := device.Fleet(device.Xavier, device.Nano)
	net := &network.Network{
		Requester: network.DefaultLink(network.Constant(200)),
		Providers: []network.Link{
			network.DefaultLink(network.Constant(200)),
			network.DefaultLink(network.Constant(200)),
		},
	}
	env := &Env{Model: cnn.YOLOv2(), Devices: device.AsModels(devs), Net: net}
	s := equalSplitStrategy(env.Model, strategy.PoolBoundaries(env.Model), 2)
	lat, _, err := env.Latency(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Fatal("latency must be positive")
	}
}

func TestLatencyRejectsInvalidStrategy(t *testing.T) {
	env := testEnv(100, device.Nano, device.Nano)
	bad := &strategy.Strategy{Boundaries: []int{0, 5}}
	if _, _, err := env.Latency(bad, 0); err == nil {
		t.Fatal("invalid strategy must be rejected")
	}
}

func TestExecStepwiseMatchesLatency(t *testing.T) {
	// Driving Exec manually must give the same result as Env.Latency.
	env := testEnv(100, device.Xavier, device.Nano, device.TX2, device.Nano)
	s := equalSplitStrategy(env.Model, strategy.PoolBoundaries(env.Model), 4)
	want, _, err := env.Latency(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := NewExec(env, s.Boundaries, 0)
	for v := 0; !x.Done(); v++ {
		x.Step(s.Splits[v])
	}
	got, _, err := x.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("stepwise latency %g != direct %g", got, want)
	}
}

func TestExecAccumulatedMonotone(t *testing.T) {
	env := testEnv(100, device.Xavier, device.Nano, device.TX2, device.Nano)
	s := equalSplitStrategy(env.Model, strategy.PoolBoundaries(env.Model), 4)
	x := NewExec(env, s.Boundaries, 0)
	prev := append([]float64(nil), x.Accumulated()...)
	for v := 0; !x.Done(); v++ {
		x.Step(s.Splits[v])
		cur := x.Accumulated()
		for i := range cur {
			if cur[i] < prev[i]-1e-12 {
				t.Fatalf("volume %d: accumulated latency decreased for device %d", v, i)
			}
		}
		prev = append(prev[:0], cur...)
	}
}

func TestExecErrors(t *testing.T) {
	env := testEnv(100, device.Nano, device.Nano)
	x := NewExec(env, strategy.SingleVolume(env.Model), 0)
	if _, _, err := x.Finish(); err == nil {
		t.Error("Finish before all volumes must error")
	}
	x.Step([]int{1, 2, 3}) // wrong cut count
	if x.Err() == nil {
		t.Error("wrong cut count must set error")
	}
	if _, _, err := x.Finish(); err == nil {
		t.Error("Finish after error must fail")
	}
}

func TestStream(t *testing.T) {
	env := testEnv(200, device.Xavier, device.Nano)
	s := equalSplitStrategy(env.Model, strategy.PoolBoundaries(env.Model), 2)
	res, err := env.Stream(s, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Images != 50 || res.IPS <= 0 {
		t.Fatalf("bad stream result %+v", res)
	}
	// IPS * mean latency must be consistent.
	if math.Abs(res.IPS*res.MeanLatMS/1e3-1) > 1e-9 {
		t.Errorf("IPS %g inconsistent with mean latency %gms", res.IPS, res.MeanLatMS)
	}
	if _, err := env.Stream(s, 0, 0); err == nil {
		t.Error("zero images must error")
	}
}

func TestBreakdownMaxHelpers(t *testing.T) {
	bd := Breakdown{PerDevComp: []float64{1, 3, 2}, PerDevTrans: []float64{0.5, 0.1, 0}}
	if bd.MaxComp() != 3 || bd.MaxTrans() != 0.5 {
		t.Errorf("max helpers wrong: %g %g", bd.MaxComp(), bd.MaxTrans())
	}
	if (Breakdown{}).MaxComp() != 0 {
		t.Error("empty breakdown max must be 0")
	}
}
