package plancache

import (
	"distredge/internal/sim"
	"distredge/internal/strategy"
)

// CachedReplan wraps a re-planner with the plan cache, so recovery consults
// the cache before searching: the surviving fleet's signature is looked up,
// and an exact hit skips the re-planning search entirely — the cached
// subset strategy is Lifted back onto the full fleet (dead providers idle)
// and redeployment proceeds immediately. On a miss the inner re-planner
// runs, and its result — Projected onto the survivors — is cached under the
// survivor-fleet signature, so the *second* failure into the same fleet
// shape (a recurring churn pattern, or the same fleet on a redeployed
// cluster sharing the cache) replans in cache-lookup time instead of
// search time. Like any re-planner it is what turns recovery on, as
// runtime.Options.Replan or sim.ChurnOptions.Replan.
//
// obj is the objective the deployment serves (nil = latency); it is part
// of the signature and scores the cached entries. inner is the re-planner
// to fall back to, e.g. splitter.ObjectiveReplan(obj) or
// splitter.SearchReplan, and id names it: the survivor-fleet signatures
// carry id, so a re-planner is served only the plans it made itself.
func CachedReplan(c *Cache, obj sim.Objective, id PlannerID, inner sim.ReplanFunc) sim.ReplanFunc {
	return func(env *sim.Env, old *strategy.Strategy, alive []bool) (*strategy.Strategy, error) {
		sub, _, err := env.Subset(alive)
		if err != nil {
			return inner(env, old, alive)
		}
		sig := SignatureOf(sub, obj)
		sig.Planner = id
		if cached, _, ok := c.Get(sig); ok {
			lifted, err := strategy.Lift(env.Model, cached, alive)
			if err == nil {
				return lifted, nil
			}
			// A cached strategy that cannot be lifted (should not happen —
			// the signature pins the survivor count) falls through to the
			// inner re-planner.
		}
		full, err := inner(env, old, alive)
		if err != nil {
			return nil, err
		}
		if proj, perr := strategy.Project(env.Model, full, alive); perr == nil {
			if score, serr := sim.Rank(sub, obj, proj); serr == nil {
				c.Put(sig, proj, score)
			}
		}
		return full, nil
	}
}
