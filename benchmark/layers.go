package main

import (
	"fmt"
	"sort"

	"distredge/internal/experiments"
	"distredge/internal/partition"
	"distredge/internal/plancache"
	"distredge/internal/rl"
	"distredge/internal/sim"
	"distredge/internal/splitter"
)

// timeEach runs fn n times and returns the sorted per-call durations in ns.
func timeEach(n int, fn func() error) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := now()
		if err := fn(); err != nil {
			return nil, err
		}
		out = append(out, float64(now()-t0))
	}
	sort.Float64s(out)
	return out, nil
}

// probePlannerLayers times the planner's layers one call at a time, from
// outside, on the given fleet: LC-PSS (partition.Search), one OSDS search
// (splitter.Search) at the budget the planner would give it, one DDPG update
// at that budget's network sizes over a filled replay buffer, the two
// simulator evaluations the objectives call (Env.Latency for latency,
// PipelineStreamOpts for throughput) and the plan cache's signature. newEnv
// must return a fresh environment each call: a cold plan starts with cold
// latency caches, and so does each timed search.
//
// Under the latency objective (obj nil) a cold plan is exactly one
// partition.Search and one splitter.Search, and the probe checks that: it
// times the whole planner beside the two parts, the three interleaved and
// the fastest of each taken, so that a slow spell of the box cannot fall on
// one side of the comparison only. It returns parts ÷ whole − 1.
func probePlannerLayers(rec *RunRecord, newEnv func() (*sim.Env, error), obj sim.Objective, cfg runConfig) (resid float64, err error) {
	budget, err := effortBudget(cfg.effort())
	if err != nil {
		return 0, err
	}
	budget.Seed = plannerSeed
	reps := 5 // the fastest of five: on a noisy box three still let one side get lucky
	if cfg.smoke {
		reps = 1
	}
	env, err := newEnv()
	if err != nil {
		return 0, err
	}
	n := env.NumProviders()
	m := rec.Metrics

	var part, split, whole []float64
	var boundaries []int
	var res *splitter.Result
	var searchEnv *sim.Env
	for i := 0; i < reps; i++ {
		// partition.Search, configured as experiments' planner configures it.
		t0 := now()
		boundaries, err = partition.Search(env.Model, partition.Config{
			Alpha: 0.75, NumRandomSplits: budget.RandomSplits, Providers: n, Seed: budget.Seed,
		})
		if err != nil {
			return 0, fmt.Errorf("partition.Search: %w", err)
		}
		part = append(part, float64(now()-t0))

		// splitter.Search over those boundaries, configured likewise
		// (sigma^2 0.1 below 16 providers, warm start on).
		if searchEnv, err = newEnv(); err != nil {
			return 0, err
		}
		t0 = now()
		res, err = splitter.Search(searchEnv, boundaries, splitter.Config{
			Episodes: budget.Episodes, Hidden: budget.Hidden, Batch: budget.Batch,
			SigmaSq: 0.1, Seed: budget.Seed, WarmStart: true, Objective: obj,
		})
		if err != nil {
			return 0, fmt.Errorf("splitter.Search: %w", err)
		}
		split = append(split, float64(now()-t0))

		if obj == nil {
			planEnv, err := newEnv()
			if err != nil {
				return 0, err
			}
			t0 = now()
			if _, err := experiments.Planner(budget, 0)(planEnv, nil, nil); err != nil {
				return 0, fmt.Errorf("experiments.Planner: %w", err)
			}
			whole = append(whole, float64(now()-t0))
		}
	}
	sort.Float64s(part)
	sort.Float64s(split)
	sort.Float64s(whole)
	splitNS := percentile(split, 0.5)
	m["partition.search_ms_p50"] = exact("ms", percentile(part, 0.5)/1e6, len(part))
	m["splitter.search_ms_p50"] = exact("ms", splitNS/1e6, len(split))
	m["splitter.episode_us"] = exact("us", splitNS/1e3/float64(budget.Episodes), budget.Episodes)
	cs := searchEnv.CacheStats()
	if lookups := cs.Hits + cs.Misses; lookups > 0 {
		m["device.cache_hit_share"] = exact("fraction", float64(cs.Hits)/float64(lookups), int(lookups))
	}
	if len(whole) > 0 {
		resid = (part[0]+split[0])/whole[0] - 1
	}

	// rl.Agent.Update at the budget's network sizes, the replay buffer
	// holding several batches.
	agent, err := rl.New(rl.Config{StateDim: n + 4, ActionDim: n - 1, Hidden: budget.Hidden, Seed: budget.Seed})
	if err != nil {
		return 0, err
	}
	for i := 0; i < 4*budget.Batch; i++ {
		agent.Buf.Add(rl.Transition{
			State: make([]float64, n+4), Action: make([]float64, n-1), Reward: 1,
			NextState: make([]float64, n+4), Done: i%6 == 5,
		})
	}
	upd, _ := timeEach(200, func() error { agent.Update(budget.Batch); return nil })
	m["rl.update_us_p50"] = exact("us", percentile(upd, 0.5)/1e3, len(upd))

	// The simulator as the two objectives use it, on the strategy found.
	lat, err := timeEach(200, func() error { _, _, err := env.Latency(res.Strategy, 0); return err })
	if err != nil {
		return 0, fmt.Errorf("Env.Latency: %w", err)
	}
	m["sim.latency_eval_us_p50"] = exact("us", percentile(lat, 0.5)/1e3, len(lat))
	pipe, err := timeEach(50, func() error {
		_, err := env.PipelineStreamOpts(res.Strategy, sim.PipelineConfig{Images: 64, Window: 4, Batch: 1})
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("Env.PipelineStreamOpts: %w", err)
	}
	m["sim.pipeline_eval_us_p50"] = exact("us", percentile(pipe, 0.5)/1e3, len(pipe))

	sig, _ := timeEach(200, func() error { plancache.SignatureOf(env, obj); return nil })
	m["plancache.signature_us_p50"] = exact("us", percentile(sig, 0.5)/1e3, len(sig))

	return resid, nil
}
