package runtime

import (
	"testing"

	"distredge/internal/device"
	"distredge/internal/sim"
	"distredge/internal/transport"
)

// TestRunPipelinedBatchOneMatchesDefault is the equivalence property test:
// Options.Batch = 1 (and any negative value) must take the pre-batching
// compute path — every compute invocation covers exactly one step instance,
// the emulated cost per step is unchanged, and the run completes
// identically.
func TestRunPipelinedBatchOneMatchesDefault(t *testing.T) {
	env := testEnv(device.Xavier, device.Nano, device.TX2, device.Nano)
	s := stageStrategy(env, env.Model, []int{0, 10, 14, 18})
	const images, window = 8, 4
	for _, batch := range []int{1, -1} {
		opts := fastOpts()
		opts.Batch = batch
		cl, err := Deploy(env, s, opts)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := cl.RunPipelined(images, window)
		if err != nil {
			cl.Close()
			t.Fatal(err)
		}
		if stats.Completed != images {
			t.Errorf("batch=%d: completed %d of %d", batch, stats.Completed, images)
		}
		if stats.Batch != 1 {
			t.Errorf("batch=%d: RunStats.Batch = %d, want 1 (default)", batch, stats.Batch)
		}
		totalSteps, totalInv := 0, 0
		for _, ps := range cl.Stats() {
			totalSteps += ps.StepsExecuted
			totalInv += ps.Invocations
			if ps.MaxBatch > 1 {
				t.Errorf("batch=%d: provider %d coalesced a batch of %d — batching must be off", batch, ps.Index, ps.MaxBatch)
			}
		}
		if totalSteps != totalInv {
			t.Errorf("batch=%d: %d steps over %d invocations — must be 1:1 without batching", batch, totalSteps, totalInv)
		}
		cl.Close()
	}
}

// TestRunPipelinedAdaptiveBatchDrains checks the zero value's adaptive cap:
// Batch = 0 drains whatever queued behind a busy device — invocations
// amortise like a fixed cap, outputs still arrive per image, and no
// configured bound shows up in the stats.
func TestRunPipelinedAdaptiveBatchDrains(t *testing.T) {
	env := testEnv(device.Xavier, device.Nano, device.TX2, device.Nano)
	s := stageStrategy(env, env.Model, []int{0, 10, 14, 18})
	const images, window = 8, 4
	opts := fastOpts()
	opts.Batch = 0
	cl, err := Deploy(env, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	stats, err := cl.RunPipelined(images, window)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != images {
		t.Fatalf("completed %d of %d", stats.Completed, images)
	}
	if stats.Batch != 0 {
		t.Errorf("RunStats.Batch = %d, want the adaptive 0 to round-trip", stats.Batch)
	}
	totalSteps, totalInv, maxBatch := 0, 0, 0
	for _, ps := range cl.Stats() {
		totalSteps += ps.StepsExecuted
		totalInv += ps.Invocations
		if ps.MaxBatch > maxBatch {
			maxBatch = ps.MaxBatch
		}
	}
	if totalSteps != images*len(cl.Stats()) {
		t.Errorf("executed %d steps, want one per (image, provider) = %d", totalSteps, images*len(cl.Stats()))
	}
	if maxBatch <= 1 || totalInv >= totalSteps {
		t.Errorf("adaptive cap never coalesced: max batch %d, %d invocations for %d steps",
			maxBatch, totalInv, totalSteps)
	}
}

// TestRunPipelinedBatchingCoalesces checks the tentpole mechanism end to
// end: with a wide admission window the per-stage work queues, Batch = 4
// coalesces queued same-step images into shared invocations (visible as
// Invocations < StepsExecuted and MaxBatch > 1), the per-image outputs all
// still arrive, and the amortised cost model is charged (total ComputeSec
// below the unbatched run's).
func TestRunPipelinedBatchingCoalesces(t *testing.T) {
	env := testEnv(device.Xavier, device.Nano, device.TX2, device.Nano)
	s := stageStrategy(env, env.Model, []int{0, 10, 14, 18})
	const images, window = 16, 8
	run := func(batch int) (RunStats, []ProviderStats) {
		t.Helper()
		opts := fastOpts()
		opts.Batch = batch
		cl, err := Deploy(env, s, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		stats, err := cl.RunPipelined(images, window)
		if err != nil {
			t.Fatal(err)
		}
		return stats, cl.Stats()
	}
	base, baseProv := run(1)
	batched, prov := run(4)
	if base.Completed != images || batched.Completed != images {
		t.Fatalf("completions: unbatched %d, batched %d, want %d", base.Completed, batched.Completed, images)
	}
	if batched.Batch != 4 {
		t.Errorf("RunStats.Batch = %d, want 4", batched.Batch)
	}
	steps, inv, maxBatch := 0, 0, 0
	var computeSec, baseComputeSec float64
	for i, ps := range prov {
		steps += ps.StepsExecuted
		inv += ps.Invocations
		if ps.MaxBatch > maxBatch {
			maxBatch = ps.MaxBatch
		}
		computeSec += ps.ComputeSec
		baseComputeSec += baseProv[i].ComputeSec
	}
	if maxBatch < 2 {
		t.Errorf("no batch ever formed (MaxBatch %d) despite window %d queueing", maxBatch, window)
	}
	if maxBatch > 4 {
		t.Errorf("batch of %d exceeds the configured cap 4", maxBatch)
	}
	if inv >= steps {
		t.Errorf("%d invocations for %d steps — batching never amortised an invocation", inv, steps)
	}
	// Same steps executed; batched invocations must charge less total
	// emulated compute (the fixed fraction is paid once per batch).
	baseSteps := 0
	for _, ps := range baseProv {
		baseSteps += ps.StepsExecuted
	}
	if steps != baseSteps {
		t.Errorf("batched run executed %d steps, unbatched %d — outputs must be per image either way", steps, baseSteps)
	}
	if computeSec >= baseComputeSec {
		t.Errorf("batched compute %.4fs not below unbatched %.4fs", computeSec, baseComputeSec)
	}
}

// TestShapedBatchingReproducesSimOrdering is the differential acceptance
// test: the simulator predicts that batching raises sustained throughput on
// a stage pipeline over a dynamic trace, and the shaped runtime — same
// network, same batch cap, same cost model — must reproduce that ordering.
func TestShapedBatchingReproducesSimOrdering(t *testing.T) {
	// Bandwidth high enough that the bottleneck stage's compute — not the
	// wire — limits throughput: batching only pays where work queues on a
	// device (the 20-60 Mbps regime of the transport differential test is
	// wire-bound, and there the simulator rightly predicts batching is
	// inert).
	env := dynamicEnv(150, 300)
	s := stageStrategy(env, env.Model, []int{0, 10, 14, 18})
	const window = 8

	simRun := func(batch int) sim.ServeResult {
		t.Helper()
		res, err := env.Serve(s, sim.Scenario{Tenants: []sim.TenantSpec{{Images: 32}}, Window: window, Batch: batch})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sim1, sim4 := simRun(1), simRun(4)
	if sim4.SteadyIPS <= 1.05*sim1.SteadyIPS {
		t.Fatalf("simulator must predict a batching speedup here: batch 4 %.2f ips vs batch 1 %.2f ips",
			sim4.SteadyIPS, sim1.SteadyIPS)
	}

	const timeScale, bytesScale = 0.05, 0.001
	const images = 12
	rtRun := func(batch int) RunStats {
		t.Helper()
		opts := Options{
			TimeScale:         timeScale,
			BytesScale:        bytesScale,
			Batch:             batch,
			HeartbeatInterval: -1,
			Transport:         transport.NewShaped(transport.NewInproc(), env.Net, timeScale, bytesScale, 0),
		}
		cl, err := Deploy(env, s, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		st, err := cl.RunPipelined(images, window)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	rt1, rt4 := rtRun(1), rtRun(4)
	t.Logf("sim: batch 1 %.2f ips, batch 4 %.2f ips (%.2fx)", sim1.SteadyIPS, sim4.SteadyIPS, sim4.SteadyIPS/sim1.SteadyIPS)
	t.Logf("rt:  batch 1 %.2f ips, batch 4 %.2f ips (%.2fx)", rt1.IPS, rt4.IPS, rt4.IPS/rt1.IPS)
	if rt1.Completed != images || rt4.Completed != images {
		t.Fatalf("completions: batch 1 %d, batch 4 %d, want %d", rt1.Completed, rt4.Completed, images)
	}
	if rt4.IPS <= rt1.IPS {
		t.Errorf("shaped runtime does not reproduce the predicted batching speedup: batch 4 %.2f ips vs batch 1 %.2f ips",
			rt4.IPS, rt1.IPS)
	}
}
