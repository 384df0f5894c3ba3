package splitter

import (
	"fmt"

	"distredge/internal/sim"
	"distredge/internal/strategy"
)

// This file provides the re-planners churn recovery plugs into
// sim.ChurnOptions.Replan and runtime Options.Replan. Neither executor has
// one of its own: setting the re-planner is what turns recovery on. Two
// quality/latency points:
//
//   - BalancedReplan: per-volume profile-guided balanced cuts over the
//     alive providers (the warm-start heuristic of OSDS, hill-climbed on
//     the true per-part compute latency). No training — milliseconds, and
//     deterministic. Fit for a deployed fleet: re-planning happens on the
//     serving path, where a dead provider is already stalling images.
//
//   - SearchReplan: full OSDS (DDPG) search over the survivor fleet,
//     warm-started from the old strategy projected onto the survivors.
//     Seconds of controller time; for offline what-if analysis and for
//     callers that can afford planning-grade quality mid-run.

// BalancedSubset builds a strategy over the given boundaries that splits
// every volume across the alive providers proportionally to their measured
// speed (then hill-climbs the cut points on true per-part latency). Dead
// providers get empty parts.
func BalancedSubset(env *sim.Env, boundaries []int, alive []bool) (*strategy.Strategy, error) {
	n := env.NumProviders()
	if len(alive) != n {
		return nil, fmt.Errorf("splitter: alive mask has %d entries for %d providers", len(alive), n)
	}
	if strategy.CountAlive(alive) == 0 {
		return nil, fmt.Errorf("splitter: no alive providers to re-plan over")
	}
	s := &strategy.Strategy{Boundaries: append([]int(nil), boundaries...)}
	var w warmScratch
	for v := 0; v+1 < len(boundaries); v++ {
		layers := strategy.Volume(env.Model, boundaries, v)
		h := layers[len(layers)-1].OutHeight()
		s.Splits = append(s.Splits, w.balanced(make([]int, n-1), env, layers, h, alive))
	}
	return s, nil
}

// BalancedReplan is the profile-guided sim.ReplanFunc: it keeps the old
// strategy's volume boundaries and re-balances every volume over the alive
// providers.
func BalancedReplan(env *sim.Env, old *strategy.Strategy, alive []bool) (*strategy.Strategy, error) {
	return BalancedSubset(env, old.Boundaries, alive)
}

// ObjectiveReplan returns the sim.ReplanFunc recovery uses for the given
// planning objective. The latency default is BalancedReplan unchanged; for
// other objectives it builds the balanced survivor layout, then the stage
// layout over the survivors (volume v on the (v mod live)-th survivor,
// empty parts for dead providers), and serves the better of the two under
// sim.Best — so a cluster that was serving a throughput-optimal plan
// recovers into a throughput-optimal plan, not a latency-optimal one,
// while re-planning stays training-free on the serving path.
func ObjectiveReplan(obj sim.Objective) sim.ReplanFunc {
	if sim.IsLatencyObjective(obj) {
		return BalancedReplan
	}
	return func(env *sim.Env, old *strategy.Strategy, alive []bool) (*strategy.Strategy, error) {
		bal, err := BalancedSubset(env, old.Boundaries, alive)
		if err != nil {
			return nil, err
		}
		stage, err := strategy.Lift(env.Model, strategy.Stage(env.Model, old.Boundaries, strategy.CountAlive(alive)), alive)
		if err != nil {
			return nil, err
		}
		var best sim.Best
		for _, s := range []*strategy.Strategy{bal, stage} {
			if err := best.Consider(env, obj, s); err != nil {
				return nil, err
			}
		}
		return best.Strategy, nil
	}
}

// SearchReplan returns a sim.ReplanFunc that runs OSDS over the survivor
// fleet, warm-started from the old strategy projected onto the survivors,
// and lifts the result back to the full fleet (empty parts for dead
// providers). Fleets with fewer than two survivors fall back to
// BalancedReplan (the DDPG trainer needs a non-trivial action space).
func SearchReplan(cfg Config) sim.ReplanFunc {
	return func(env *sim.Env, old *strategy.Strategy, alive []bool) (*strategy.Strategy, error) {
		if strategy.CountAlive(alive) < 2 {
			return BalancedReplan(env, old, alive)
		}
		sub, _, err := env.Subset(alive)
		if err != nil {
			return nil, err
		}
		proj, err := strategy.Project(env.Model, old, alive)
		if err != nil {
			return nil, err
		}
		c := cfg
		c.InitSplits = proj.Splits
		res, err := Search(sub, old.Boundaries, c)
		if err != nil {
			return nil, err
		}
		return strategy.Lift(env.Model, res.Strategy, alive)
	}
}
