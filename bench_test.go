// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section V). Each BenchmarkFigNN runs the corresponding harness from
// internal/experiments at a bounded budget and reports the headline metric
// (IPS or latency) alongside the usual ns/op. For paper-scale numbers use
// cmd/distbench with -budget full or -budget paper.
package distredge

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"distredge/internal/baselines"
	"distredge/internal/cnn"
	"distredge/internal/device"
	"distredge/internal/experiments"
	"distredge/internal/network"
	"distredge/internal/partition"
	"distredge/internal/rl"
	"distredge/internal/sim"
	"distredge/internal/splitter"
	"distredge/internal/strategy"
)

func benchBudget() experiments.Budget {
	b := experiments.Tiny()
	b.Episodes = 40
	b.StreamImages = 50
	return b
}

// BenchmarkFig04StableTraces regenerates the Fig. 4 stable WiFi traces.
func BenchmarkFig04StableTraces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig04StableTraces(1)
		if len(rows) != 4 {
			b.Fatal("bad trace rows")
		}
	}
}

// BenchmarkFig05AlphaSweep regenerates one case of the Fig. 5 α sweep.
func BenchmarkFig05AlphaSweep(b *testing.B) {
	bud := benchBudget()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig05AlphaSweep(bud, 1)
		if err != nil {
			b.Fatal(err)
		}
		best := 0.0
		for _, r := range rows {
			if r.IPS > best {
				best = r.IPS
			}
		}
		b.ReportMetric(best, "bestIPS")
	}
}

// BenchmarkFig06RrsSweep regenerates the Fig. 6 |Rrs| stability sweep with
// a small repetition count.
func BenchmarkFig06RrsSweep(b *testing.B) {
	bud := benchBudget()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig06RrsSweep(bud, 3)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 12 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// benchmarkMethodFigure runs a Fig. 7/8/9/10/11-style harness and reports
// DistrEdge's mean IPS and its mean speedup over the best baseline per case.
func benchmarkMethodFigure(b *testing.B, run func(experiments.Budget) ([]experiments.MethodRow, error)) {
	b.Helper()
	bud := benchBudget()
	for i := 0; i < b.N; i++ {
		rows, err := run(bud)
		if err != nil {
			b.Fatal(err)
		}
		byCase := map[string][]experiments.MethodRow{}
		for _, r := range rows {
			byCase[r.Case] = append(byCase[r.Case], r)
		}
		cases := make([]string, 0, len(byCase))
		for c := range byCase {
			cases = append(cases, c)
		}
		sort.Strings(cases)
		var ipsSum, spdSum float64
		for _, c := range cases {
			cr := byCase[c]
			de, ok := experiments.FindRow(cr, experiments.MethodDistrEdge)
			if !ok {
				b.Fatal("missing DistrEdge row")
			}
			ipsSum += de.IPS
			if best := experiments.BestBaselineIPS(cr); best > 0 {
				spdSum += de.IPS / best
			}
		}
		n := float64(len(byCase))
		b.ReportMetric(ipsSum/n, "distredgeIPS")
		b.ReportMetric(spdSum/n, "speedup")
	}
}

// BenchmarkFig07HeterogeneousDevices regenerates Fig. 7 (Table I).
func BenchmarkFig07HeterogeneousDevices(b *testing.B) {
	benchmarkMethodFigure(b, experiments.Fig07HeterogeneousDevices)
}

// BenchmarkFig08HeterogeneousNetworks regenerates Fig. 8 (Table II).
func BenchmarkFig08HeterogeneousNetworks(b *testing.B) {
	benchmarkMethodFigure(b, experiments.Fig08HeterogeneousNetworks)
}

// BenchmarkFig09LargeScale regenerates Fig. 9 (Table III, 16 devices).
func BenchmarkFig09LargeScale(b *testing.B) {
	benchmarkMethodFigure(b, experiments.Fig09LargeScale)
}

// BenchmarkFig10ModelsDB regenerates Fig. 10 (seven models, Group DB).
func BenchmarkFig10ModelsDB(b *testing.B) {
	benchmarkMethodFigure(b, experiments.Fig10ModelsDB)
}

// BenchmarkFig11ModelsNA regenerates Fig. 11 (seven models, Group NA).
func BenchmarkFig11ModelsNA(b *testing.B) {
	benchmarkMethodFigure(b, experiments.Fig11ModelsNA)
}

// BenchmarkFig12DynamicTraces regenerates the Fig. 12 dynamic traces.
func BenchmarkFig12DynamicTraces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig12DynamicTraces(1)
		if len(rows) != 4 {
			b.Fatal("bad trace rows")
		}
	}
}

// BenchmarkFig13DynamicLatency regenerates the Fig. 13 online-adaptation
// timeline and reports the DistrEdge/AOFL latency ratio (paper: 40-65%).
func BenchmarkFig13DynamicLatency(b *testing.B) {
	bud := benchBudget()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig13DynamicLatency(bud)
		if err != nil {
			b.Fatal(err)
		}
		s := experiments.Summarise(rows)
		b.ReportMetric(s.MeanDistrEdgeMS, "distredgeMS")
		b.ReportMetric(100*s.DistrEdgeOverAOFL, "pctOfAOFL")
	}
}

// BenchmarkFig14NonlinearLatency regenerates the Fig. 14 staircase curve.
func BenchmarkFig14NonlinearLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig14Nonlinear(device.Xavier)
		b.ReportMetric(experiments.Staircaseness(rows), "staircaseness")
	}
}

// BenchmarkFig15LatencyBreakdown regenerates the Fig. 15 per-method
// transmission/compute breakdown.
func BenchmarkFig15LatencyBreakdown(b *testing.B) {
	bud := benchBudget()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig15Breakdown(bud)
		if err != nil {
			b.Fatal(err)
		}
		de, ok := experiments.FindRow(rows, experiments.MethodDistrEdge)
		if !ok {
			b.Fatal("missing DistrEdge row")
		}
		b.ReportMetric(de.MaxCompMS, "maxCompMS")
		b.ReportMetric(de.MaxTransMS, "maxTransMS")
	}
}

// ------------------------------------------------------------------
// Ablation benchmarks for the design choices DESIGN.md calls out.

// BenchmarkAblationNonlinearity measures DistrEdge's speedup over AOFL on
// staircase vs linearised devices — the paper's causal claim in one number
// pair (staircase margin should exceed the linear margin).
func BenchmarkAblationNonlinearity(b *testing.B) {
	bud := benchBudget()
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationNonlinearity(bud, 50)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.StaircaseSpeedup, "stairSpeedup")
		b.ReportMetric(res.LinearSpeedup, "linearSpeedup")
	}
}

// BenchmarkAblationWarmStart measures OSDS with and without the
// profile-guided warm-start episodes at a short budget.
func BenchmarkAblationWarmStart(b *testing.B) {
	bud := benchBudget()
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationWarmStart(bud)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.WithWarmStartIPS, "warmIPS")
		b.ReportMetric(res.WithoutWarmStartIPS, "coldIPS")
	}
}

// BenchmarkAblationPartition compares OSDS over LC-PSS vs fixed partition
// families (single volume / pool boundaries / layer-by-layer).
func BenchmarkAblationPartition(b *testing.B) {
	bud := benchBudget()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationPartition(bud)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.IPS, r.Partition+"IPS")
		}
	}
}

// BenchmarkAutoAlpha measures the α-portfolio planner (the paper's Fig. 5
// selection methodology applied per case).
func BenchmarkAutoAlpha(b *testing.B) {
	bud := benchBudget()
	env := benchEnv()
	for i := 0; i < b.N; i++ {
		_, alpha, ips, err := experiments.PlanDistrEdgeAutoAlpha(env, bud, []float64{0.5, 0.75})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ips, "IPS")
		b.ReportMetric(alpha, "alpha")
	}
}

// ------------------------------------------------------------------
// Micro-benchmarks for the core building blocks.

func benchEnv() *sim.Env {
	devs := device.Fleet(device.Xavier, device.Xavier, device.Nano, device.Nano)
	net := &network.Network{Requester: network.DefaultLink(network.Constant(200))}
	for range devs {
		net.Providers = append(net.Providers, network.DefaultLink(network.Constant(200)))
	}
	return &sim.Env{Model: cnn.VGG16(), Devices: device.AsModels(devs), Net: net}
}

// benchStrategy builds the fixed three-volume strategy the micro-benchmarks
// evaluate.
func benchStrategy(env *sim.Env) *strategy.Strategy {
	boundaries := []int{0, 10, 14, 18}
	s := &strategy.Strategy{Boundaries: boundaries}
	for v := 0; v+1 < len(boundaries); v++ {
		h := strategy.VolumeHeight(env.Model, boundaries, v)
		s.Splits = append(s.Splits, strategy.EqualCuts(h, 4))
	}
	return s
}

// BenchmarkSimLatency measures one end-to-end latency evaluation — the
// inner loop of both OSDS training and streaming measurements.
func BenchmarkSimLatency(b *testing.B) {
	env := benchEnv()
	s := benchStrategy(env)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := env.Latency(s, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStream measures a 500-image streaming evaluation on a constant
// network — the workload behind every IPS figure. On time-invariant
// networks the steady-state fast path extrapolates after convergence, so
// this also tracks that the extrapolation stays engaged.
func BenchmarkStream(b *testing.B) {
	env := benchEnv()
	s := benchStrategy(env)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := env.Stream(s, 500, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.IPS, "IPS")
	}
}

// BenchmarkPipelineStream measures a 500-image pipelined streaming
// evaluation with four images in flight — the sustained-serving workload
// behind the Fig. 16 window sweep. Unlike Stream, the pipeline engine has
// no steady-state short-circuit (resource carryover makes images differ),
// so this tracks the honest per-image replay cost.
func BenchmarkPipelineStream(b *testing.B) {
	env := benchEnv()
	s := benchStrategy(env)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := env.PipelineStreamOpts(s, sim.PipelineConfig{Images: 500, Window: 4, Batch: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.IPS, "IPS")
	}
}

// BenchmarkPipelineStreamBatched is BenchmarkPipelineStream with a
// step-batching cap of 4: the same 500-image window-4 replay through the
// batch-aware engine. It tracks both the engine's own overhead (the
// stepRuns bookkeeping must stay cheap) and the predicted serving-rate
// headline the batched runtime is validated against.
func BenchmarkPipelineStreamBatched(b *testing.B) {
	env := benchEnv()
	s := benchStrategy(env)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := env.PipelineStreamOpts(s, sim.PipelineConfig{Images: 500, Window: 4, Batch: 4})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.IPS, "IPS")
	}
}

// BenchmarkLCPSS measures a full partition search for each (model,
// provider count) a plan-mix pass plans, at the quick budget's 50 random
// splits.
func BenchmarkLCPSS(b *testing.B) {
	for _, key := range []struct {
		model     *cnn.Model
		providers []int
	}{
		{cnn.VGG16(), []int{4, 5}}, {cnn.ResNet50(), []int{5, 6}},
		{cnn.YOLOv2(), []int{4, 6}}, {cnn.InceptionV3(), []int{4, 5}},
	} {
		for _, n := range key.providers {
			cfg := partition.Config{Alpha: 0.75, NumRandomSplits: 50, Providers: n, Seed: 1}
			b.Run(fmt.Sprintf("%s/%d", key.model.Name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := partition.Search(key.model, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkOSDSSearch measures a short OSDS training run.
func BenchmarkOSDSSearch(b *testing.B) {
	env := benchEnv()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := splitter.Search(env, []int{0, 10, 14, 18}, splitter.Config{
			Episodes: 20, Hidden: []int{16, 16}, Batch: 16, Seed: 1, WarmStart: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanCachedHit measures a warmed System.PlanCached hit on a
// five-provider vgg16 fleet over the stable 60-minute traces: the path
// most plan-mix requests take. TestPlanCachedHitAllocs pins its allocation
// count.
func BenchmarkPlanCachedHit(b *testing.B) {
	sys, err := New("vgg16", append(fourProviders(), Provider{Type: "tx2", BandwidthMbps: 150}), WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	cfg := PlanConfig{Effort: EffortTiny}
	pc := NewPlanCache(0)
	if _, _, err := sys.PlanCached(cfg, pc); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, out, err := sys.PlanCached(cfg, pc); err != nil || out != PlanHit {
			b.Fatalf("outcome %q, %v; want a hit", out, err)
		}
	}
}

// BenchmarkDDPGUpdate measures one actor+critic gradient step for a
// 4-provider fleet (state 8, action 3) at the paper's network sizes
// ({400,200,100}, batch 64) and at the quick budget's ({32,32}, batch 32),
// which is what plan-mix runs. The replay buffer holds seeded random
// transitions: all-zero states would leave most ReLU activations at zero,
// and the kernels skip zero terms, so the update timed would be a
// degenerate one.
//
// Each agent lives for ddpgAgentLifetime updates, then rl.New
// re-initialises it with the timer stopped, as each search starts a fresh
// agent (a quick search runs at most ≈ 800 updates on one). One agent
// for all b.N updates would drift into another regime: after ≈ 10 000
// updates its Adam moments start to go subnormal, and by 50 000 a quick
// update read ≈ 15–20 % slower on a 2-vCPU Xeon, so ns/op would depend
// on -benchtime.
func BenchmarkDDPGUpdate(b *testing.B) {
	const ddpgAgentLifetime = 500
	for _, c := range []struct {
		name   string
		hidden []int
		batch  int
	}{
		{"paper", nil, 64},
		{"quick", experiments.Quick().Hidden, experiments.Quick().Batch},
	} {
		b.Run(c.name, func(b *testing.B) {
			const stateDim, actionDim = 8, 3
			rng := rand.New(rand.NewSource(1))
			uniform := func(n int) []float64 {
				v := make([]float64, n)
				for i := range v {
					v[i] = 2*rng.Float64() - 1
				}
				return v
			}
			ts := make([]rl.Transition, 2*c.batch)
			for i := range ts {
				ts[i] = rl.Transition{
					State:     uniform(stateDim),
					Action:    uniform(actionDim),
					Reward:    rng.Float64(),
					NextState: uniform(stateDim),
					Done:      i%6 == 5,
				}
			}
			var agent *rl.Agent
			// fresh releases the current agent, if any, and starts a new
			// one on the same transitions. Its first update builds the
			// update scratch on a newly allocated agent, so it runs here.
			fresh := func() {
				if agent != nil {
					agent.Release()
				}
				var err error
				agent, err = rl.New(rl.Config{StateDim: stateDim, ActionDim: actionDim, Hidden: c.hidden, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				for _, t := range ts {
					agent.Buf.Add(t)
				}
				agent.Update(c.batch)
			}
			fresh()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				if i%ddpgAgentLifetime == 0 {
					b.StopTimer()
					fresh()
					b.StartTimer()
				}
				agent.Update(c.batch)
			}
		})
	}
}

// BenchmarkBaselinePlan measures planning cost of each baseline method.
func BenchmarkBaselinePlan(b *testing.B) {
	env := benchEnv()
	for _, m := range baselines.All() {
		b.Run(string(m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := baselines.Plan(m, env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
