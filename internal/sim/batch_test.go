package sim

import (
	"math"
	"testing"

	"distredge/internal/device"
	"distredge/internal/strategy"
)

// TestBatchedComputeSec pins the sublinear batch cost model both engines
// share: k <= 1 is the exact single-image cost (no float operations), and a
// k-image invocation pays the fixed fraction once plus k marginal shares.
func TestBatchedComputeSec(t *testing.T) {
	const comp = 0.0371
	if got := BatchedComputeSec(comp, 1); got != comp {
		t.Errorf("k=1: got %.17g, want exactly %.17g", got, comp)
	}
	if got := BatchedComputeSec(comp, 0); got != comp {
		t.Errorf("k=0: got %.17g, want exactly %.17g", got, comp)
	}
	want := comp * (BatchFixedFrac + (1-BatchFixedFrac)*4)
	if got := BatchedComputeSec(comp, 4); got != want {
		t.Errorf("k=4: got %g, want %g", got, want)
	}
	// Batching k images in one invocation must cost less than k invocations
	// but more than one, for every k > 1.
	for k := 2; k <= 16; k++ {
		b := BatchedComputeSec(comp, k)
		if b <= comp || b >= comp*float64(k) {
			t.Errorf("k=%d: batched cost %g outside (comp, k*comp) = (%g, %g)", k, b, comp, comp*float64(k))
		}
	}
}

// TestPipelineBatchingIncreasesThroughput pins the tentpole claim on the
// compute axis: on a stage pipeline whose devices queue work, coalescing
// queued same-step images into batched invocations amortises the per-step
// fixed cost and raises sustained throughput. Batching can never help a
// window-1 stream (nothing ever queues), and a larger batch cap can never
// reduce throughput.
func TestPipelineBatchingIncreasesThroughput(t *testing.T) {
	env := testEnv(200, device.Xavier, device.Nano, device.TX2, device.Nano)
	s := stageStrategy(env.Model, []int{0, 10, 14, 18}, 4)
	const images, window = 80, 8
	run := func(batch int) PipelineResult {
		t.Helper()
		res, err := env.PipelineStreamOpts(s, PipelineConfig{Images: images, Window: window, Batch: batch})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	b1, b4, b8 := run(1), run(4), run(8)
	if b4.SteadyIPS <= 1.05*b1.SteadyIPS {
		t.Errorf("batch 4 SteadyIPS %.3f not measurably above batch 1 %.3f", b4.SteadyIPS, b1.SteadyIPS)
	}
	if b8.SteadyIPS < b4.SteadyIPS {
		t.Errorf("batch 8 SteadyIPS %.3f below batch 4 %.3f", b8.SteadyIPS, b4.SteadyIPS)
	}
	// The adaptive cap (Batch 0) is bit-identical to a cap no batch can
	// reach — an open batch can never span more images than the stream
	// holds — and never slower than any finite cap.
	adaptive, capped := run(0), run(images)
	if adaptive.TotalSec != capped.TotalSec || adaptive.SteadyIPS != capped.SteadyIPS {
		t.Errorf("adaptive batch diverges from the unreachable cap: total %.17g vs %.17g",
			adaptive.TotalSec, capped.TotalSec)
	}
	if adaptive.SteadyIPS < b8.SteadyIPS {
		t.Errorf("adaptive SteadyIPS %.3f below batch 8 %.3f", adaptive.SteadyIPS, b8.SteadyIPS)
	}
	if adaptive.Batch != 0 {
		t.Errorf("result Batch = %d, want the adaptive 0 to round-trip", adaptive.Batch)
	}
	// Window 1: one image in flight, nothing queues, batching is inert.
	w1, err := env.PipelineStreamOpts(s, PipelineConfig{Images: 30, Window: 1, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	w1ref, err := env.Serve(s, oneTenant(30, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if w1.TotalSec != w1ref.TotalSec {
		t.Errorf("window-1 batched total %.17g != unbatched %.17g (batching must be inert without queueing)",
			w1.TotalSec, w1ref.TotalSec)
	}
}

// TestPipelineWireFracShrinksTransfers pins the wire-codec lever: on a
// bandwidth-starved deployment, scaling every transfer's bytes down by the
// codec's fraction must cut latency and raise throughput, and the speedup
// must grow as the fraction shrinks.
func TestPipelineWireFracShrinksTransfers(t *testing.T) {
	env := testEnv(20, device.Xavier, device.Nano) // 20 Mbps: wire-dominated
	s := equalSplitStrategy(env.Model, strategy.PoolBoundaries(env.Model), 2)
	run := func(frac float64) PipelineResult {
		t.Helper()
		res, err := env.PipelineStreamOpts(s, PipelineConfig{Images: 30, Window: 4, Batch: 1, WireFrac: frac})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	raw, fp16, int8 := run(1), run(0.5), run(0.25)
	if fp16.SteadyIPS <= raw.SteadyIPS {
		t.Errorf("fp16 wire SteadyIPS %.3f not above raw %.3f", fp16.SteadyIPS, raw.SteadyIPS)
	}
	if int8.SteadyIPS <= fp16.SteadyIPS {
		t.Errorf("int8 wire SteadyIPS %.3f not above fp16 %.3f", int8.SteadyIPS, fp16.SteadyIPS)
	}
	if int8.MeanLatMS >= raw.MeanLatMS {
		t.Errorf("int8 wire mean latency %.3fms not below raw %.3fms", int8.MeanLatMS, raw.MeanLatMS)
	}
	// WireFrac 1 passed explicitly is the identity, bit-for-bit.
	ref, err := env.Serve(s, oneTenant(30, 4, 0))
	if err != nil {
		t.Fatal(err)
	}
	if raw.TotalSec != ref.TotalSec {
		t.Errorf("WireFrac=1 total %.17g != default %.17g", raw.TotalSec, ref.TotalSec)
	}
}

func TestPipelineStreamOptsRejectsBadWireFrac(t *testing.T) {
	env := testEnv(100, device.Nano, device.Nano)
	s := equalSplitStrategy(env.Model, strategy.SingleVolume(env.Model), 2)
	for _, frac := range []float64{-0.5, math.NaN(), math.Inf(1)} {
		if _, err := env.PipelineStreamOpts(s, PipelineConfig{Images: 5, Window: 2, WireFrac: frac}); err == nil {
			t.Errorf("WireFrac=%v must error", frac)
		}
	}
}

// TestThroughputObjectiveBatchAware checks the planner-facing contract: the
// ips objective with Batch set scores a queue-prone strategy better (lower
// seconds per image) than the unbatched objective, and Batch <= 0 defaults
// to the bit-identical unbatched score.
func TestThroughputObjectiveBatchAware(t *testing.T) {
	env := testEnv(200, device.Xavier, device.Nano, device.TX2, device.Nano)
	s := stageStrategy(env.Model, []int{0, 10, 14, 18}, 4)
	base, err := ThroughputObjective{Window: 8}.Score(env, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := ThroughputObjective{Window: 8, Batch: 4}.Score(env, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if batched >= base {
		t.Errorf("batch-4 objective score %.6g not below unbatched %.6g", batched, base)
	}
	zero, err := ThroughputObjective{Window: 8, Batch: 0}.Score(env, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if zero != base {
		t.Errorf("Batch=0 score %.17g != default %.17g", zero, base)
	}
}
