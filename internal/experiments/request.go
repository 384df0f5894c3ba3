package experiments

import (
	"fmt"
	"runtime"
	"slices"

	"distredge/internal/partition"
	"distredge/internal/plancache"
	"distredge/internal/sim"
	"distredge/internal/splitter"
	"distredge/internal/strategy"
)

// Request is one DistrEdge planning request: the budget (its seed
// included), LC-PSS's α and the objective (nil = latency). Alpha is used as
// given; callers resolve any default before building the request. A plan is
// a pure function of the request and the fleet: Plan and Trainer configure
// LC-PSS (lcpss) and OSDS (osdsConfig) from the request, and ID names the
// same fields in the plan cache's key.
type Request struct {
	Budget    Budget
	Alpha     float64
	Objective sim.Objective
}

// osdsConfig derives the OSDS configuration from a budget. The paper uses
// σ²=0.1 for four providers and σ²=1 for sixteen (Section V).
func osdsConfig(b Budget, providers int) splitter.Config {
	sigmaSq := 0.1
	if providers >= 16 {
		sigmaSq = 1
	}
	return splitter.Config{
		Episodes:  b.Episodes,
		Hidden:    b.Hidden,
		Batch:     b.Batch,
		SigmaSq:   sigmaSq,
		Seed:      b.Seed,
		WarmStart: true,
	}
}

// LCPSS runs the partition search (LC-PSS) under the budget.
func LCPSS(env *sim.Env, b Budget, alpha float64) ([]int, error) {
	return lcpss(nil, env, b, alpha)
}

// lcpss is LCPSS through a memo (nil: search every time).
func lcpss(memo *partition.Memo, env *sim.Env, b Budget, alpha float64) ([]int, error) {
	return memo.Search(env.Model, partition.Config{
		Alpha:           alpha,
		NumRandomSplits: b.RandomSplits,
		Providers:       env.NumProviders(),
		Seed:            b.Seed,
	})
}

// ID names the request in a plan-cache key: every field that decides a
// plan. The budget's StreamImages and Parallel decide none (they size
// measurements and worker pools), and the objective has its own place in
// the key (plancache.Signature.Objective). It builds no string and copies
// no slice: a plan-cache hit calls it on every request.
func (r Request) ID() plancache.PlannerID {
	b := r.Budget
	return plancache.PlannerID{
		Method: MethodDistrEdge, Episodes: b.Episodes, Hidden: b.Hidden,
		Batch: b.Batch, RandomSplits: b.RandomSplits, Alpha: r.Alpha, Seed: b.Seed,
	}
}

// Planner adapts the request to the plan-cache contract: each planning
// runs Plan for the objective the cache asks for, warm-started when the
// cache hands it a neighbour's plan. The LC-PSS boundaries come from memo,
// so the caller decides how long they are remembered: LC-PSS reads no
// device speed and no bandwidth, so every fleet of one model and size
// shares them.
func (r Request) Planner(memo *partition.Memo) plancache.Planner {
	return func(env *sim.Env, obj sim.Objective, init *strategy.Strategy) (*strategy.Strategy, error) {
		req := r
		req.Objective = obj
		return req.Plan(env, init, memo)
	}
}

// Trainer runs LC-PSS and builds the OSDS trainer over its boundaries: the
// agent Plan's search trains at full and paper effort, handed out
// untrained for callers that keep it alive and finetune it when the
// network changes (Section V-F). It trains at any effort: below full, Plan
// trains none.
func (r Request) Trainer(env *sim.Env) (*splitter.Trainer, error) {
	boundaries, err := LCPSS(env, r.Budget, r.Alpha)
	if err != nil {
		return nil, fmt.Errorf("experiments: LC-PSS: %w", err)
	}
	cfg := osdsConfig(r.Budget, env.NumProviders())
	cfg.Objective = r.Objective
	return splitter.NewTrainer(env, boundaries, cfg)
}

// Plan runs the DistrEdge pipeline: LC-PSS, then one OSDS search per
// boundary set with Config.Objective set, and returns the best candidate
// under sim.Best, considered in this order: the seed, then each boundary
// set's search result and its stage anchor. The LC-PSS boundaries come
// from memo, which nil turns off. Under the latency objective without a
// seed it searches the LC-PSS boundaries only: the paper's pipeline. For
// other objectives two extensions matter for throughput:
//
//   - besides the LC-PSS boundaries the search also tries the pool-merged
//     stage boundaries (StageBoundaries): a stage layout needs roughly one
//     volume per provider before an admission window can fill, and LC-PSS
//     — which scores sequential latency — often merges to fewer;
//   - the noiseless stage layout (strategy.Stage) of each boundary set is
//     ranked directly (warm-start episodes add exploration noise, so the
//     exact layout may never appear as an episode).
//
// init, when not nil, is a warm-start seed: a known-good strategy for this
// exact fleet shape (same provider count) that the search explores outward
// from. The seed's splits feed the splitter's Config.InitSplits (scheduled
// as the first warm episode, so the best-strategy tracker is anchored from
// episode 0), the seed's own volume boundaries join the boundary sets
// searched, and the seed itself is ranked as a candidate — so the returned
// plan never scores worse than the seed under the objective. Because the
// seed anchors the search, a warm-started request searches on half the
// episode budget.
//
// At Full's episode count and above (full and paper effort) each boundary
// set's search trains the paper's DDPG agent (splitter.Search). Below it
// (tiny and quick) no agent is trained, cold or warm: splitter.Descend
// plays the same search's warm-start schedule and polishes its best by
// cut-point descent, one boundary set after another. On Figs. 7–11 the
// descent ranks DistrEdge above the trained agent at tiny and quick
// (geometric-mean IPS +7.0 % and +9.4 %, DESIGN.md) in a tenth of the
// planning time; at full the training is kept, as the paper's search.
func (r Request) Plan(env *sim.Env, init *strategy.Strategy, memo *partition.Memo) (*strategy.Strategy, error) {
	b, obj := r.Budget, r.Objective
	n := env.NumProviders()
	if init != nil {
		if err := init.Validate(env.Model, n); err != nil {
			return nil, fmt.Errorf("experiments: warm-start seed: %w", err)
		}
	}
	lcp, err := lcpss(memo, env, b, r.Alpha)
	if err != nil {
		return nil, fmt.Errorf("experiments: LC-PSS: %w", err)
	}
	boundarySets := [][]int{lcp}
	addBoundaries := func(bs []int) {
		if !slices.ContainsFunc(boundarySets, func(have []int) bool { return slices.Equal(have, bs) }) {
			boundarySets = append(boundarySets, bs)
		}
	}
	if init != nil {
		addBoundaries(init.Boundaries)
	}
	if !sim.IsLatencyObjective(obj) {
		addBoundaries(StageBoundaries(env.Model, n))
	}
	var best sim.Best
	cfg := osdsConfig(b, n)
	cfg.Objective = obj
	search, workers := splitter.Search, runtime.GOMAXPROCS(0)
	if b.Episodes < Full().Episodes {
		// A descent takes milliseconds: two on two cores finish no sooner
		// than in turn, and the wait hands the caller to another core.
		search, workers = splitter.Descend, 1
	}
	if init != nil {
		if err := best.Consider(env, obj, init); err != nil {
			return nil, err
		}
		cfg.Episodes = (b.Episodes + 1) / 2
		cfg.InitSplits = init.Splits
	}
	results, err := searchBoundarySets(env, boundarySets, cfg, search, workers)
	if err != nil {
		return nil, fmt.Errorf("experiments: OSDS (%s): %w", sim.DefaultObjective(obj).Name(), err)
	}
	for i, boundaries := range boundarySets {
		if err := best.Consider(env, obj, results[i].Strategy); err != nil {
			return nil, err
		}
		if !sim.IsLatencyObjective(obj) {
			if err := best.Consider(env, obj, strategy.Stage(env.Model, boundaries, n)); err != nil {
				return nil, err
			}
		}
	}
	return best.Strategy, nil
}

// searchBoundarySets runs search (splitter.Search or splitter.Descend) once
// per boundary set, on up to workers goroutines, and returns the results in
// boundary-set order or the error of the lowest-index set that failed.
// Each search owns its trainer, agent and seed and the env's caches are
// safe to share, so every result is the one a serial search returns: the
// plan stays a pure function of the seed on any core count.
func searchBoundarySets(env *sim.Env, sets [][]int, cfg splitter.Config, search func(*sim.Env, []int, splitter.Config) (*splitter.Result, error), workers int) ([]*splitter.Result, error) {
	results := make([]*splitter.Result, len(sets))
	err := runIndexed(len(sets), workers, func(i int) error {
		res, err := search(env, sets[i], cfg)
		results[i] = res
		return err
	})
	return results, err
}
