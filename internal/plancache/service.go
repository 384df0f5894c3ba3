package plancache

import (
	"fmt"
	"sync"

	"distredge/internal/sim"
	"distredge/internal/strategy"
)

// Planner runs one planning: produce a strategy for the environment under
// the objective (nil = latency), optionally warm-started from init — a
// known-good strategy for this exact fleet shape that the search should
// explore outward from (fed into splitter Config.InitSplits; see
// experiments.PlanObjectiveInit for the canonical implementation). init is
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
	// one cache across services (or with a recovery CachedReplan) is safe.
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

// Service is a stateless planner service: Plan calls for distinct fleet
// signatures run concurrently on the worker pool, identical signatures are
// deduplicated single-flight (the duplicate waits for the first flight's
// result instead of planning again), exact cache hits return immediately,
// and misses are warm-started from the nearest cached neighbour. "Stateless"
// means serving state only: everything the service accumulates lives in the
// (shareable, bounded) cache, so services can be built and discarded freely.
type Service struct {
	cache *Cache
	plan  Planner
	slots chan struct{}

	mu       sync.Mutex
	inflight map[string]*call // guarded by mu
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
	return &Service{
		cache:    cache,
		plan:     cfg.Planner,
		slots:    make(chan struct{}, workers),
		inflight: make(map[string]*call),
	}, nil
}

// Cache returns the backing cache (for stats, or to share with a recovery
// CachedReplan).
func (s *Service) Cache() *Cache { return s.cache }

// Plan serves one planning request. Exact signature hits return the cached
// strategy without planning; otherwise the planning runs on the worker
// pool, warm-started from the nearest cached neighbour when one is
// comparable, and the result — guaranteed to score no worse than its
// warm-start seed under the requested objective — is cached before
// returning.
func (s *Service) Plan(env *sim.Env, obj sim.Objective) (Result, error) {
	sig := SignatureOf(env, obj)
	key := sig.Key() // rendered once: the cache, the in-flight table and the miss share it
	if strat, score, ok := s.cache.get(key); ok {
		return Result{Strategy: strat, Score: score, Outcome: OutcomeHit}, nil
	}
	s.mu.Lock()
	if c, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		<-c.done
		return c.res, c.err
	}
	c := &call{done: make(chan struct{})}
	s.inflight[key] = c
	s.mu.Unlock()

	c.res, c.err = s.planMiss(env, obj, sig, key)

	s.mu.Lock()
	delete(s.inflight, key)
	s.mu.Unlock()
	close(c.done)
	return c.res, c.err
}

// planMiss runs the planning for a cache miss of sig, rendered as key, on a
// worker slot.
func (s *Service) planMiss(env *sim.Env, obj sim.Objective, sig Signature, key string) (Result, error) {
	s.slots <- struct{}{}
	defer func() { <-s.slots }()

	var init *strategy.Strategy
	var seedKey string
	if nkey, nsig, nstrat, ok := s.cache.nearest(sig); ok {
		if seed := warmSeed(env.Model, sig, nsig, nstrat); seed != nil &&
			seed.Validate(env.Model, env.NumProviders()) == nil {
			init, seedKey = seed, nkey
			s.cache.countWarmHit()
		}
	}

	strat, err := s.plan(env, obj, init)
	if err != nil {
		return Result{}, fmt.Errorf("plancache: planning %s: %w", key, err)
	}
	scorer := sim.DefaultObjective(obj)
	score, err := scorer.Score(env, strat, 0)
	if err != nil {
		return Result{}, fmt.Errorf("plancache: scoring %s: %w", key, err)
	}
	outcome := OutcomeCold
	if init != nil {
		outcome = OutcomeWarm
		// A warm-started plan never scores worse than its seed split: when
		// the shortened search fails to match the seed, the seed itself is
		// the plan.
		if seedScore, serr := scorer.Score(env, init, 0); serr == nil && seedScore < score {
			strat, score = init, seedScore
		}
	}
	// Hand out the cache-resident clone, so every path (hit or miss)
	// returns cache-owned read-only strategies.
	cached := s.cache.put(key, sig, strat, score)
	return Result{Strategy: cached, Score: score, Outcome: outcome, SeedKey: seedKey}, nil
}
