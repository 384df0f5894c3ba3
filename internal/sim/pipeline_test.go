package sim

import (
	"math"
	"testing"

	"distredge/internal/cnn"
	"distredge/internal/device"
	"distredge/internal/strategy"
)

// TestPipelineWindowOneMatchesStream pins the acceptance criterion: with an
// admission window of 1 the pipeline engine degenerates to Stream's
// one-image-at-a-time protocol and must reproduce it bit-for-bit, on both
// constant and time-varying networks, across strategy shapes.
func TestPipelineWindowOneMatchesStream(t *testing.T) {
	for _, constant := range []bool{true, false} {
		env := equivEnv(t, constant)
		for si, s := range equivStrategies(env.Model, env.NumProviders()) {
			const images = 40
			want, err := env.Stream(s, images, 0)
			if err != nil {
				t.Fatalf("strategy %d: stream: %v", si, err)
			}
			got, err := env.Serve(s, oneTenant(images, 1, 0))
			if err != nil {
				t.Fatalf("strategy %d: pipeline: %v", si, err)
			}
			if got.TotalSec != want.TotalSec {
				t.Errorf("strategy %d (constant=%v): TotalSec %.17g != stream %.17g",
					si, constant, got.TotalSec, want.TotalSec)
			}
			if got.IPS != want.IPS {
				t.Errorf("strategy %d (constant=%v): IPS %.17g != stream %.17g",
					si, constant, got.IPS, want.IPS)
			}
			// Per-image latencies must equal the reference per-image loop.
			tt := 0.0
			for m := 0; m < images; m++ {
				lat, _, err := env.ReferenceLatency(s, tt)
				if err != nil {
					t.Fatal(err)
				}
				if got.PerImageSec[m] != lat {
					t.Fatalf("strategy %d image %d: latency %.17g != reference %.17g",
						si, m, got.PerImageSec[m], lat)
				}
				tt += lat
			}
		}
	}
}

// stageStrategy assigns volume v entirely to provider v%n — the classic
// stage pipeline, where the sequential protocol pays the sum of the stages
// but a filled pipeline pays only the slowest stage per image.
func stageStrategy(m *cnn.Model, boundaries []int, n int) *strategy.Strategy {
	s := &strategy.Strategy{Boundaries: boundaries}
	for v := 0; v+1 < len(boundaries); v++ {
		h := strategy.VolumeHeight(m, boundaries, v)
		s.Splits = append(s.Splits, strategy.AllOnProvider(h, n, v%n))
	}
	return s
}

// TestPipelineWiderWindowIncreasesThroughput pins the tentpole claim: on a
// multi-device case, overlapping images pipelines the per-volume stages
// across devices, so a wider admission window yields measurably more
// images/sec than the sequential protocol.
func TestPipelineWiderWindowIncreasesThroughput(t *testing.T) {
	env := testEnv(200, device.Xavier, device.Nano, device.TX2, device.Nano)
	s := stageStrategy(env.Model, []int{0, 10, 14, 18}, 4)
	seq, err := env.Serve(s, oneTenant(60, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	pip, err := env.Serve(s, oneTenant(60, 4, 0))
	if err != nil {
		t.Fatal(err)
	}
	if pip.IPS < 1.5*seq.IPS {
		t.Errorf("window 4 IPS %.3f not measurably above window 1 IPS %.3f", pip.IPS, seq.IPS)
	}
	// Equal splits pipeline too (every device works on every volume, so
	// only the scatter/result edges overlap), just far less.
	eq := equalSplitStrategy(env.Model, []int{0, 10, 14, 18}, 4)
	eqSeq, err := env.Serve(eq, oneTenant(60, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	eqPip, err := env.Serve(eq, oneTenant(60, 4, 0))
	if err != nil {
		t.Fatal(err)
	}
	if eqPip.IPS <= eqSeq.IPS {
		t.Errorf("equal split: window 4 IPS %.3f not above window 1 IPS %.3f", eqPip.IPS, eqSeq.IPS)
	}
	// Queueing can only delay an image, never speed it up: under load every
	// per-image latency is at least the unloaded oracle latency.
	oracle, _, err := env.Latency(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	for m, lat := range pip.PerImageSec {
		if lat < oracle-1e-12 {
			t.Fatalf("image %d latency %.6g below unloaded latency %.6g", m, lat, oracle)
		}
	}
	if pip.MeanLatMS < seq.MeanLatMS {
		t.Errorf("pipelined mean latency %.3fms below sequential %.3fms", pip.MeanLatMS, seq.MeanLatMS)
	}
}

// TestPipelineSteadyStateMatchesBottleneck checks the resource semantics on
// the simplest possible case: offloading everything to one provider makes
// that provider's compute the pipeline bottleneck, so the steady-state
// throughput must converge to 1/computeLatency (scatter and result return
// overlap with the next image's compute).
func TestPipelineSteadyStateMatchesBottleneck(t *testing.T) {
	env := testEnv(300, device.Xavier, device.Nano)
	s := offloadStrategy(env.Model, 2, 0)
	res, err := env.Serve(s, oneTenant(80, 8, 0))
	if err != nil {
		t.Fatal(err)
	}
	comp := device.ModelLatency(env.Devices[0], env.Model)
	got := res.SteadyIPS
	want := 1 / comp
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("steady-state IPS %.3f, want ~1/compute = %.3f", got, want)
	}
	// The sequential protocol pays scatter + compute + result per image, so
	// pipelining past it must help.
	seq, err := env.Serve(s, oneTenant(80, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.IPS <= seq.IPS {
		t.Errorf("pipelined IPS %.3f not above sequential %.3f", res.IPS, seq.IPS)
	}
}

// TestPipelineWindowBeyondImages admits everything immediately and must
// still respect resource serialization.
func TestPipelineWindowBeyondImages(t *testing.T) {
	env := testEnv(200, device.Xavier, device.Nano)
	s := equalSplitStrategy(env.Model, strategy.PoolBoundaries(env.Model), 2)
	res, err := env.Serve(s, oneTenant(10, 64, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.IPS <= 0 || res.TotalSec <= 0 {
		t.Fatalf("bad result %+v", res)
	}
	if res.MaxLatMS < res.P95LatMS || res.P95LatMS < res.P50LatMS {
		t.Errorf("latency quantiles out of order: p50 %.3f p95 %.3f max %.3f",
			res.P50LatMS, res.P95LatMS, res.MaxLatMS)
	}
	// Ten images on two devices cannot finish faster than the busiest
	// device can compute its per-image share.
	var perImageComp float64
	for v := 0; v < s.NumVolumes(); v++ {
		layers := strategy.Volume(env.Model, s.Boundaries, v)
		part := s.PartRange(env.Model, v, 0)
		if !part.Empty() {
			perImageComp += env.VolumeLatency(0, layers, part)
		}
	}
	if res.TotalSec < 10*perImageComp-1e-9 {
		t.Errorf("total %.4fs beats device-0 compute floor %.4fs", res.TotalSec, 10*perImageComp)
	}
}

func TestPipelineRejectsBadArgs(t *testing.T) {
	env := testEnv(100, device.Nano, device.Nano)
	s := equalSplitStrategy(env.Model, strategy.SingleVolume(env.Model), 2)
	if _, err := env.Serve(s, oneTenant(0, 1, 0)); err == nil {
		t.Error("zero images must error")
	}
	if _, err := env.Serve(s, oneTenant(5, 0, 0)); err == nil {
		t.Error("zero window must error")
	}
	bad := &strategy.Strategy{Boundaries: []int{0, 5}}
	if _, err := env.Serve(bad, oneTenant(5, 2, 0)); err == nil {
		t.Error("invalid strategy must be rejected")
	}
}
