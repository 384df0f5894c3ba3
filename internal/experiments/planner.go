package experiments

import (
	"fmt"

	"distredge/internal/cnn"
	"distredge/internal/partition"
	"distredge/internal/plancache"
	"distredge/internal/sim"
	"distredge/internal/strategy"
)

// Planner is the plan-cache planner of the DistrEdge request at budget b
// and α (0 means the paper's 0.75), with an LC-PSS memo that lives as long
// as the returned closure.
func Planner(b Budget, alpha float64) plancache.Planner {
	if alpha == 0 {
		alpha = 0.75
	}
	return Request{Budget: b, Alpha: alpha}.Planner(partition.NewMemo())
}

// PlannerRow is one planning of the planner-service sweep (fig planner).
type PlannerRow struct {
	Phase   string // "cold", "exact" or "warm"
	Fleet   string
	Outcome plancache.Outcome
	SeedKey string  // warm-start donor signature ("" unless warm)
	Score   float64 // objective score of the served plan (s/img)
	// ColdScore is what a full cold planning of this same fleet scores —
	// filled in the warm phase only, to quantify the warm-start quality
	// delta (Score/ColdScore <= 1 means equal or better).
	ColdScore float64
}

// Planner sweep phase names.
const (
	PlannerPhaseCold  = "cold"
	PlannerPhaseExact = "exact"
	PlannerPhaseWarm  = "warm"
)

// seedEntry is one cold-phase product, re-used to seed later phases.
type seedEntry struct {
	sig   plancache.Signature
	strat *strategy.Strategy
	score float64
}

// PlannerSweep drives the three phases of the planner-service benchmark on a
// fixed fleet corpus (Group DB — Xavier x2 + Nano x2 — on VGG16 at four
// bandwidth tiers, plus four off-tier neighbour fleets):
//
//   - Cold plans each corpus fleet through a fresh, empty cache — every
//     planning runs the full search;
//   - Exact re-plans the same fleets through one service whose cache holds
//     the cold corpus — every planning is an exact signature hit;
//   - Warm plans the neighbour fleets (same devices, bandwidth tiers chosen
//     to land in buckets the corpus does not occupy) against the cold
//     corpus — every planning warm-starts from its nearest corpus entry.
//
// The phases are separate methods so cmd/distbench can wall-clock each one
// into a plans/sec figure. Rows are deterministic for any Budget.Parallel:
// warm plannings each see the identical pre-seeded corpus (never each
// other's fresh results), so concurrency cannot change which donor seeds
// which fleet.
type PlannerSweep struct {
	req   Request
	seeds []seedEntry
	stats plancache.Stats
}

// NewPlannerSweep builds the sweep harness on the given budget, planning
// at the paper's α of 0.75.
func NewPlannerSweep(b Budget) *PlannerSweep {
	return &PlannerSweep{req: Request{Budget: b, Alpha: 0.75}}
}

// plannerSpecs returns the sweep's fleet corpus. The bandwidth tiers sit in
// distinct half-octave buckets (100, 140, 200, 280 Mbps → buckets 13-16),
// and the warm-phase neighbours (48, 70, 340, 480 Mbps → buckets 11, 12,
// 17, 18) neither collide with the corpus nor with each other — so exact
// hits are exact, and warm plannings are near misses, by construction.
func plannerSpecs(seed int64) (cold, warm []Spec) {
	group := DeviceGroups()[1] // DB: Xavier x2 + Nano x2
	m := cnn.VGG16()
	for _, bw := range []float64{100, 140, 200, 280} {
		cold = append(cold, group.Spec(m, bw, seed))
	}
	for _, bw := range []float64{48, 70, 340, 480} {
		warm = append(warm, group.Spec(m, bw, seed))
	}
	return cold, warm
}

// Cold runs the cold phase: each corpus fleet planned through a fresh
// service with an empty cache. The results become the seed corpus for the
// Exact and Warm phases.
func (ps *PlannerSweep) Cold() ([]PlannerRow, error) {
	cold, _ := plannerSpecs(ps.req.Budget.Seed)
	rows := make([]PlannerRow, len(cold))
	seeds := make([]seedEntry, len(cold))
	stats := make([]plancache.Stats, len(cold))
	err := runIndexed(len(cold), ps.req.Budget.Workers(), func(i int) error {
		spec := cold[i]
		svc, err := plancache.NewService(plancache.Config{Planner: ps.req.Planner(partition.NewMemo())})
		if err != nil {
			return err
		}
		env := spec.Env()
		res, err := svc.Plan(env, nil)
		if err != nil {
			return fmt.Errorf("experiments: planner sweep cold %s: %w", spec.Name, err)
		}
		rows[i] = PlannerRow{Phase: PlannerPhaseCold, Fleet: spec.Name, Outcome: res.Outcome, Score: res.Score}
		seeds[i] = seedEntry{sig: plancache.SignatureOf(env, nil), strat: res.Strategy, score: res.Score}
		stats[i] = svc.Cache().Stats()
		return nil
	})
	if err != nil {
		return nil, err
	}
	ps.seeds = seeds
	for _, s := range stats {
		ps.addStats(s)
	}
	return rows, nil
}

// Exact runs the exact-hit phase: the corpus fleets re-planned through one
// shared service whose cache already holds every corpus entry. Every
// planning must be an exact signature hit. Cold must have run first.
func (ps *PlannerSweep) Exact() ([]PlannerRow, error) {
	if len(ps.seeds) == 0 {
		return nil, fmt.Errorf("experiments: planner sweep: Exact before Cold")
	}
	cold, _ := plannerSpecs(ps.req.Budget.Seed)
	cache := plancache.New(0)
	for _, s := range ps.seeds {
		cache.Put(s.sig, s.strat, s.score)
	}
	svc, err := plancache.NewService(plancache.Config{
		Cache:   cache,
		Workers: ps.req.Budget.Workers(),
		Planner: ps.req.Planner(partition.NewMemo()),
	})
	if err != nil {
		return nil, err
	}
	rows := make([]PlannerRow, len(cold))
	err = runIndexed(len(cold), ps.req.Budget.Workers(), func(i int) error {
		spec := cold[i]
		res, err := svc.Plan(spec.Env(), nil)
		if err != nil {
			return fmt.Errorf("experiments: planner sweep exact %s: %w", spec.Name, err)
		}
		rows[i] = PlannerRow{Phase: PlannerPhaseExact, Fleet: spec.Name, Outcome: res.Outcome, Score: res.Score}
		return nil
	})
	if err != nil {
		return nil, err
	}
	ps.addStats(svc.Cache().Stats())
	return rows, nil
}

// Warm runs the warm-start phase: each neighbour fleet planned through its
// own service whose cache is pre-seeded with the full cold corpus (and
// nothing else — so concurrent plannings cannot observe each other and rows
// stay deterministic). Every planning must warm-start. Cold must have run
// first. ColdScore is left zero — WarmReference fills it — so a caller can
// wall-clock this method into an honest warm plans/sec figure.
func (ps *PlannerSweep) Warm() ([]PlannerRow, error) {
	if len(ps.seeds) == 0 {
		return nil, fmt.Errorf("experiments: planner sweep: Warm before Cold")
	}
	_, warm := plannerSpecs(ps.req.Budget.Seed)
	rows := make([]PlannerRow, len(warm))
	stats := make([]plancache.Stats, len(warm))
	err := runIndexed(len(warm), ps.req.Budget.Workers(), func(i int) error {
		spec := warm[i]
		cache := plancache.New(0)
		for _, s := range ps.seeds {
			cache.Put(s.sig, s.strat, s.score)
		}
		svc, err := plancache.NewService(plancache.Config{Cache: cache, Planner: ps.req.Planner(partition.NewMemo())})
		if err != nil {
			return err
		}
		res, err := svc.Plan(spec.Env(), nil)
		if err != nil {
			return fmt.Errorf("experiments: planner sweep warm %s: %w", spec.Name, err)
		}
		rows[i] = PlannerRow{
			Phase:   PlannerPhaseWarm,
			Fleet:   spec.Name,
			Outcome: res.Outcome,
			SeedKey: res.SeedKey,
			Score:   res.Score,
		}
		stats[i] = svc.Cache().Stats()
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, s := range stats {
		ps.addStats(s)
	}
	return rows, nil
}

// WarmReference cold-plans every warm-phase fleet at the sweep's full
// budget and fills each row's ColdScore, so the warm rows carry the
// plan-quality delta (Score/ColdScore <= 1 means the warm-started plan — a
// descent from the best of the seed and the warm-start candidates below
// Full's episode count, a half-budget search at or above it — matched or
// beat the cold search). Kept out of Warm so its wall-clock can be measured without the
// references.
func (ps *PlannerSweep) WarmReference(rows []PlannerRow) error {
	_, warm := plannerSpecs(ps.req.Budget.Seed)
	if len(rows) != len(warm) {
		return fmt.Errorf("experiments: planner sweep: WarmReference wants %d warm rows, got %d", len(warm), len(rows))
	}
	return runIndexed(len(warm), ps.req.Budget.Workers(), func(i int) error {
		spec := warm[i]
		env := spec.Env()
		coldStrat, err := ps.req.Plan(env, nil, nil)
		if err != nil {
			return fmt.Errorf("experiments: planner sweep warm %s (cold reference): %w", spec.Name, err)
		}
		coldScore, err := sim.Rank(env, nil, coldStrat)
		if err != nil {
			return err
		}
		rows[i].ColdScore = coldScore
		return nil
	})
}

// Stats returns the plan-cache counters aggregated across all phases run so
// far.
func (ps *PlannerSweep) Stats() plancache.Stats { return ps.stats }

func (ps *PlannerSweep) addStats(s plancache.Stats) {
	ps.stats.Hits += s.Hits
	ps.stats.Misses += s.Misses
	ps.stats.WarmHits += s.WarmHits
	ps.stats.Evictions += s.Evictions
}
