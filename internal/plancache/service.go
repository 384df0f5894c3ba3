package plancache

import (
	"fmt"

	"distredge/internal/sim"
	"distredge/internal/strategy"
)

// Planner runs one planning: produce a strategy for the environment under
// the objective (nil = latency), optionally warm-started from init — a
// known-good strategy for this exact fleet shape that the search should
// explore outward from (fed into splitter Config.InitSplits; see
// experiments.Request.Plan for the canonical implementation). init is
// nil for cold plannings. Implementations must be deterministic: the same
// (env contents, objective, init) must yield a bit-identical strategy.
type Planner func(env *sim.Env, obj sim.Objective, init *strategy.Strategy) (*strategy.Strategy, error)

// Outcome reports how a Plan call was served.
type Outcome string

// Plan outcomes.
const (
	// OutcomeHit: the exact fleet signature was cached; no search ran.
	OutcomeHit Outcome = "hit"
	// OutcomeWarm: a nearest-signature neighbour seeded a warm-started
	// search.
	OutcomeWarm Outcome = "warm"
	// OutcomeCold: nothing transferable was cached; the search ran from
	// scratch.
	OutcomeCold Outcome = "cold"
)

// Result is one planning outcome. Strategy is owned by the cache — treat it
// as read-only. Score is the strategy's objective score (seconds, lower is
// better). SeedKey is the signature key of the warm-start donor ("" unless
// Outcome is OutcomeWarm).
type Result struct {
	Strategy *strategy.Strategy
	Score    float64
	Outcome  Outcome
	SeedKey  string
}

// Config parameterises NewService.
type Config struct {
	// Cache is the backing plan cache; nil builds a private New(0). Sharing
	// one cache across services of one planner (or with a recovery
	// CachedReplan, which keys its own) is safe.
	Cache *Cache
	// Workers bounds concurrent plannings (the experiments Budget.Parallel
	// convention: 0/1 = serial, N > 1 = N at once, negative = one per CPU
	// as resolved by the caller). Plan calls beyond the bound queue for a
	// worker slot; exact hits never consume a slot.
	Workers int
	// Planner runs the actual plannings. Required.
	Planner Planner
}

// call is one in-flight planning, shared by single-flight duplicates.
type call struct {
	done chan struct{}
	res  Result
	err  error
}

// Service binds a planner, and a bound on how many plannings run at once,
// to a cache: Plan calls for distinct fleet signatures run concurrently up
// to the bound, identical signatures are deduplicated single-flight (the
// duplicate waits for the first flight's result instead of planning again),
// exact cache hits return immediately, and misses are warm-started from the
// nearest cached neighbour. A service holds no serving state: the plans and
// the single-flight table live in the (shareable, bounded) cache, so
// services can be built and discarded freely, and services sharing a cache
// deduplicate against each other. A Service keys with the zero PlannerID,
// so a cache serves one Service planner: another budget, α or seed needs
// its own cache.
type Service struct {
	cache *Cache
	plan  Planner // Config.Planner behind a worker slot
}

// NewService builds a planner service.
func NewService(cfg Config) (*Service, error) {
	if cfg.Planner == nil {
		return nil, fmt.Errorf("plancache: Config.Planner is required")
	}
	cache := cfg.Cache
	if cache == nil {
		cache = New(0)
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	slots := make(chan struct{}, workers)
	return &Service{cache: cache, plan: func(env *sim.Env, obj sim.Objective, init *strategy.Strategy) (*strategy.Strategy, error) {
		slots <- struct{}{}
		defer func() { <-slots }()
		return cfg.Planner(env, obj, init)
	}}, nil
}

// Cache returns the backing cache (for stats, or to share with a recovery
// CachedReplan).
func (s *Service) Cache() *Cache { return s.cache }

// Plan serves one planning request: Cache.Plan with the request's
// signature and the service's planner.
func (s *Service) Plan(env *sim.Env, obj sim.Objective) (Result, error) {
	return s.cache.Plan(env, obj, SignatureOf(env, obj), s.plan)
}

// Plan serves one planning request for env under obj through the cache.
// sig is the request's fleet signature: SignatureOf(env, obj), or a copy of
// one derived earlier from the same, unchanged env, with the planner's
// identity set. Plan keys obj itself, whatever sig.Objective holds, into
// the lookup without building a string. An exact hit returns the cached
// strategy without planning. Concurrent requests for one signature are
// deduplicated single-flight: the first runs planner, and the others wait
// for its result. A miss is warm-started from the nearest cached neighbour when one
// is comparable, and the result — guaranteed to score no worse than its
// warm-start seed under obj — is cached before returning.
func (c *Cache) Plan(env *sim.Env, obj sim.Objective, sig Signature, planner Planner) (Result, error) {
	var buf [keyBuf]byte
	kb := sig.appendKeyOf(buf[:0], obj)
	c.mu.Lock()
	if e := c.lookupLocked(kb); e != nil {
		res := Result{Strategy: e.strat, Score: e.score, Outcome: OutcomeHit}
		c.mu.Unlock()
		return res, nil
	}
	if cl := c.inflight[string(kb)]; cl != nil {
		c.mu.Unlock()
		<-cl.done
		return cl.res, cl.err
	}
	key := string(kb) // a miss renders the key once: the table, the entry and errors share it
	cl := &call{done: make(chan struct{})}
	c.inflight[key] = cl
	c.mu.Unlock()
	sig.Objective = ObjectiveKey(obj)

	cl.res, cl.err = c.planMiss(env, obj, sig, key, planner)

	c.mu.Lock()
	delete(c.inflight, key)
	c.mu.Unlock()
	close(cl.done)
	return cl.res, cl.err
}

// planMiss runs planner for a cache miss of sig, rendered as key.
func (c *Cache) planMiss(env *sim.Env, obj sim.Objective, sig Signature, key string, planner Planner) (Result, error) {
	var init *strategy.Strategy
	var seedKey string
	if nkey, nsig, nstrat, ok := c.nearest(sig); ok {
		if seed := warmSeed(env.Model, sig, nsig, nstrat); seed != nil &&
			seed.Validate(env.Model, env.NumProviders()) == nil {
			init, seedKey = seed, nkey
			c.countWarmHit()
		}
	}

	strat, err := planner(env, obj, init)
	if err != nil {
		return Result{}, fmt.Errorf("plancache: planning %s: %w", key, err)
	}
	var best sim.Best
	if err := best.Consider(env, obj, strat); err != nil {
		return Result{}, fmt.Errorf("plancache: scoring %s: %w", key, err)
	}
	outcome := OutcomeCold
	if init != nil {
		outcome = OutcomeWarm
		// A warm-started plan never scores worse than its seed split: when
		// the planner's warm plan fails to match the seed, the seed itself
		// is the plan. A seed that fails to score is ignored.
		_ = best.Consider(env, obj, init)
	}
	// Hand out the cache-resident clone, so every path (hit or miss)
	// returns cache-owned read-only strategies.
	cached := c.put(key, sig, best.Strategy, best.Score)
	return Result{Strategy: cached, Score: best.Score, Outcome: outcome, SeedKey: seedKey}, nil
}
