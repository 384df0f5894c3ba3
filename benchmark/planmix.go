package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"distredge"
	"distredge/internal/cnn"
	"distredge/internal/experiments"
	"distredge/internal/plancache"
	"distredge/internal/sim"
)

// The planning corpus. A pass is 60 PlanCached requests by one caller
// against a fresh plan cache: 12 base fleets, 12 near-miss fleets (a base
// fleet's devices with every link half an octave away, so the signature
// lands in the adjacent bandwidth bucket and the search warm-starts) and 36
// exact repeats, shuffled by the seed.
const (
	corpusBase = 12
	corpusLen  = 5 * corpusBase
)

var (
	corpusModels = []string{"vgg16", "resnet50", "yolov2", "inceptionv3"}
	corpusTiers  = []float64{50, 100, 200}
)

// fleetSpec is one planning request's subject.
type fleetSpec struct {
	Name      string
	Model     string
	Providers []distredge.Provider
	Objective distredge.Objective
}

func (f fleetSpec) planConfig(effort distredge.Effort) distredge.PlanConfig {
	return distredge.PlanConfig{Effort: effort, Objective: f.Objective, ObjectiveWindow: 4}
}

// combo is what makes two fleets' plans transferable in the plan cache:
// entries of another model or objective are never a warm-start donor.
func (f fleetSpec) combo() string { return f.Model + "/" + string(f.Objective) }

// planCorpus is the 24 distinct fleets and the 60-request order over them.
type planCorpus struct {
	Fleets   []fleetSpec
	Sequence []int
}

// corpusFleetDevices is the device multiset of a fleet of each size: one
// of every type, the larger fleets doubling up.
var corpusFleetDevices = map[int][]string{
	4: {"xavier", "tx2", "nano", "pi3"},
	5: {"xavier", "tx2", "tx2", "nano", "pi3"},
	6: {"xavier", "xavier", "tx2", "nano", "nano", "pi3"},
}

// corpusFleets returns the 24 fleets, the same for every seed. Base fleet i
// plans model i mod 4; the objective alternates with a phase shift every
// four fleets so each model meets both objectives: eight (model, objective)
// combinations over twelve base fleets. Fleets of one combination share a
// provider count, so any cached fleet of the combination can seed a warm
// start (equal-size fleets transfer index for index). Each bandwidth tier is
// used four times; which fleet gets which tier, the order of each fleet's
// devices and the direction each near-miss fleet's links move were dealt
// once, from a fixed source.
func corpusFleets() []fleetSpec {
	rng := rand.New(rand.NewSource(1))
	tiers := make([]float64, corpusBase)
	for i := range tiers {
		tiers[i] = corpusTiers[i%len(corpusTiers)]
	}
	rng.Shuffle(len(tiers), func(i, j int) { tiers[i], tiers[j] = tiers[j], tiers[i] })
	var fleets []fleetSpec
	seen := make(map[string]bool)
	for i := 0; i < corpusBase; i++ {
		mi := i % len(corpusModels)
		obj, oi := distredge.ObjectiveLatency, 0
		if (i+i/len(corpusModels))%2 == 1 {
			obj, oi = distredge.ObjectiveIPS, 1
		}
		devs := append([]string(nil), corpusFleetDevices[4+(mi+oi)%3]...)
		shift := math.Sqrt2
		if rng.Intn(2) == 0 {
			shift = 1 / math.Sqrt2
		}
		for {
			rng.Shuffle(len(devs), func(a, b int) { devs[a], devs[b] = devs[b], devs[a] })
			// Two base fleets of one combination on the same tier with the
			// same device order would be one fleet: a planned miss would hit.
			if key := fmt.Sprintf("%d/%d/%v/%v", mi, oi, tiers[i], devs); !seen[key] {
				seen[key] = true
				break
			}
		}
		base := fleetSpec{Name: fmt.Sprintf("base-%02d", i), Model: corpusModels[mi], Objective: obj}
		near := fleetSpec{Name: fmt.Sprintf("near-%02d", i), Model: corpusModels[mi], Objective: obj}
		for _, dev := range devs {
			base.Providers = append(base.Providers, distredge.Provider{Type: dev, BandwidthMbps: tiers[i]})
			near.Providers = append(near.Providers, distredge.Provider{Type: dev, BandwidthMbps: tiers[i] * shift})
		}
		fleets = append(fleets, base, near)
	}
	return fleets
}

// buildCorpus derives the request order from the seed: every fleet once,
// every fleet again, every base fleet a third time — 24 misses and 36
// repeats — shuffled. Within each (model, objective) combination the
// shuffled order is then relabelled so that the combination's fleets make
// their first appearance in corpus order. A miss's cost depends on what its
// combination already has in the cache (nothing: a cold search on the full
// budget; something: a warm one on half of it, seeded by the nearest
// entry), so with the relabelling every seed plans exactly the same 8 cold
// and 16 warm searches and only their interleaving with each other and
// with the hits differs. Without it — and with free draws of fleet size,
// devices and tiers — plans/sec moved by ±12 % from seed to seed, more than
// any bound worth holding a planner change to.
func buildCorpus(seed int64) planCorpus {
	c := planCorpus{Fleets: corpusFleets()}
	for round := 0; round < 3; round++ {
		for f := range c.Fleets {
			if round < 2 || f%2 == 0 { // base fleets sit at the even indices
				c.Sequence = append(c.Sequence, f)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(c.Sequence), func(i, j int) { c.Sequence[i], c.Sequence[j] = c.Sequence[j], c.Sequence[i] })

	inCombo := make(map[string][]int) // combination -> its fleets in corpus order
	for f, spec := range c.Fleets {
		inCombo[spec.combo()] = append(inCombo[spec.combo()], f)
	}
	relabel := make(map[int]int)
	next := make(map[string]int)
	for i, f := range c.Sequence {
		to, ok := relabel[f]
		if !ok {
			combo := c.Fleets[f].combo()
			to = inCombo[combo][next[combo]]
			next[combo]++
			relabel[f] = to
		}
		c.Sequence[i] = to
	}
	return c
}

// expectedOutcomes is the cold/warm/hit sequence the seed implies: a fleet
// seen earlier in the pass is a hit; otherwise the request warm-starts when
// the cache already holds a fleet of its (model, objective) combination and
// plans cold when it does not.
func (c planCorpus) expectedOutcomes() []distredge.PlanOutcome {
	out := make([]distredge.PlanOutcome, len(c.Sequence))
	seenFleet := make(map[int]bool)
	seenCombo := make(map[string]bool)
	for i, f := range c.Sequence {
		combo := c.Fleets[f].combo()
		switch {
		case seenFleet[f]:
			out[i] = distredge.PlanHit
		case seenCombo[combo]:
			out[i] = distredge.PlanWarm
		default:
			out[i] = distredge.PlanCold
		}
		seenFleet[f], seenCombo[combo] = true, true
	}
	return out
}

// planPass is one measured pass over the corpus.
type planPass struct {
	wallNS   int64
	reqNS    []int64
	reqCPU   []float64 // the process's CPU ms while each request ran
	outcomes []distredge.PlanOutcome
	plans    []*distredge.Plan
	systems  []*distredge.System
	before   usage
	after    usage
	peakRSS  float64 // MB, the highest resident set while the pass ran

	// Traced passes only: the plan-cache service's time per request and the
	// inner planner calls it made.
	calls []planCall
}

// reqMS returns the requests' durations in ms.
func (p *planPass) reqMS() []float64 {
	out := make([]float64, len(p.reqNS))
	for k, ns := range p.reqNS {
		out[k] = float64(ns) / 1e6
	}
	return out
}

// newSystems builds one System per fleet. Each pass gets fresh ones so the
// per-environment latency caches start cold on every pass, like the plan
// cache does.
func (c planCorpus) newSystems(seed int64) ([]*distredge.System, error) {
	systems := make([]*distredge.System, len(c.Fleets))
	for i, f := range c.Fleets {
		sys, err := distredge.New(f.Model, f.Providers, distredge.WithSeed(seed))
		if err != nil {
			return nil, fmt.Errorf("fleet %s: %w", f.Name, err)
		}
		systems[i] = sys
	}
	return systems, nil
}

// runPass plays the sequence through System.PlanCached.
func (c planCorpus) runPass(seed int64, effort distredge.Effort) (*planPass, error) {
	systems, err := c.newSystems(seed)
	if err != nil {
		return nil, err
	}
	p := &planPass{systems: systems}
	cache := distredge.NewPlanCache(0)
	rss := watchRSS()
	defer func() { p.peakRSS = rss.peakMB() }()
	p.before = readUsage()
	start := now()
	for _, f := range c.Sequence {
		c0 := cpuMS()
		t0 := now()
		plan, outcome, err := systems[f].PlanCached(c.Fleets[f].planConfig(effort), cache)
		t1 := now()
		c1 := cpuMS()
		if err != nil {
			return nil, fmt.Errorf("plan %s: %w", c.Fleets[f].Name, err)
		}
		p.reqNS = append(p.reqNS, t1-t0)
		p.reqCPU = append(p.reqCPU, c1-c0)
		p.outcomes = append(p.outcomes, outcome)
		p.plans = append(p.plans, plan)
	}
	p.wallNS = now() - start
	p.after = readUsage()
	return p, nil
}

// runTracedPass plays the sequence through the same plan-cache service
// PlanCached builds, with the planner wrapped so each miss splits into the
// search and the service around it. The environments are rebuilt from the
// fleet descriptions exactly as distredge.New builds them.
func (c planCorpus) runTracedPass(seed int64, effort distredge.Effort) (*planPass, error) {
	budget, err := effortBudget(effort)
	if err != nil {
		return nil, err
	}
	budget.Seed = seed
	p := &planPass{}
	envs := make([]*sim.Env, len(c.Fleets))
	for i, f := range c.Fleets {
		env, err := mirrorEnv(f.Model, f.Providers, seed)
		if err != nil {
			return nil, err
		}
		envs[i] = env
	}
	cache := plancache.New(0)
	planner := tracedPlanner(experiments.Planner(budget, 0), &p.calls)
	p.before = readUsage()
	start := now()
	for _, f := range c.Sequence {
		obj, err := distredge.RuntimeObjective(c.Fleets[f].planConfig(effort))
		if err != nil {
			return nil, err
		}
		t0 := now()
		svc, err := plancache.NewService(plancache.Config{Cache: cache, Planner: planner})
		if err != nil {
			return nil, err
		}
		res, err := svc.Plan(envs[f], obj)
		t1 := now()
		if err != nil {
			return nil, fmt.Errorf("plan %s: %w", c.Fleets[f].Name, err)
		}
		p.reqNS = append(p.reqNS, t1-t0)
		p.outcomes = append(p.outcomes, distredge.PlanOutcome(res.Outcome))
	}
	p.wallNS = now() - start
	p.after = readUsage()
	return p, nil
}

// verify checks one untraced pass: the outcome sequence is the expected
// one, every plan is valid for its fleet, and every hit returned the bytes
// of that fleet's first plan.
func (c planCorpus) verify(p *planPass, want []distredge.PlanOutcome) []string {
	var bad []string
	first := make(map[int][]byte)
	zoo := cnn.Zoo()
	for i, f := range c.Sequence {
		spec := c.Fleets[f]
		if p.outcomes[i] != want[i] {
			bad = append(bad, fmt.Sprintf("request %d (%s): outcome %s, the seed implies %s", i, spec.Name, p.outcomes[i], want[i]))
		}
		if p.plans == nil {
			continue
		}
		if err := p.plans[i].Strategy.Validate(zoo[spec.Model], len(spec.Providers)); err != nil {
			bad = append(bad, fmt.Sprintf("request %d (%s): invalid plan: %v", i, spec.Name, err))
		}
		data, err := p.systems[f].SavePlan(p.plans[i])
		if err != nil {
			bad = append(bad, fmt.Sprintf("request %d (%s): save plan: %v", i, spec.Name, err))
			continue
		}
		if prev, ok := first[f]; !ok {
			first[f] = data
		} else if !bytes.Equal(prev, data) {
			bad = append(bad, fmt.Sprintf("request %d (%s): plan differs from the fleet's first plan", i, spec.Name))
		}
	}
	return bad
}

// quality scores the pass's plans on the simulator. planQuality is the
// geometric mean over the distinct fleets of best-baseline score ÷
// DistrEdge score under each fleet's objective (scores are seconds, lower
// is better, so > 1 means DistrEdge wins); predictedIPS is the geometric
// mean predicted images/sec of the throughput-objective fleets' plans.
func (c planCorpus) quality(p *planPass) (planQuality, predictedIPS float64, err error) {
	firstPlan := make(map[int]*distredge.Plan)
	for i, f := range c.Sequence {
		if _, ok := firstPlan[f]; !ok {
			firstPlan[f] = p.plans[i]
		}
	}
	fleets := make([]int, 0, len(firstPlan))
	for f := range firstPlan {
		fleets = append(fleets, f)
	}
	sort.Ints(fleets)
	var logQ, logIPS float64
	ipsFleets := 0
	for _, f := range fleets {
		spec, sys := c.Fleets[f], p.systems[f]
		q, own, err := planQualityRatio(sys, firstPlan[f], spec.Objective)
		if err != nil {
			return 0, 0, fmt.Errorf("score %s: %w", spec.Name, err)
		}
		logQ += math.Log(q)
		if spec.Objective == distredge.ObjectiveIPS {
			logIPS += math.Log(1 / own)
			ipsFleets++
		}
	}
	planQuality = math.Exp(logQ / float64(len(fleets)))
	if ipsFleets > 0 {
		predictedIPS = math.Exp(logIPS / float64(ipsFleets))
	}
	return planQuality, predictedIPS, nil
}

// planQualityRatio returns best-baseline score ÷ the plan's score under the
// objective (window 4), and the plan's own score.
func planQualityRatio(sys *distredge.System, plan *distredge.Plan, obj distredge.Objective) (ratio, own float64, err error) {
	own, err = sys.Score(plan, obj, 4)
	if err != nil {
		return 0, 0, err
	}
	best := math.Inf(1)
	for _, name := range distredge.Baselines() {
		bp, err := sys.Baseline(name)
		if err != nil {
			return 0, 0, err
		}
		sc, err := sys.Score(bp, obj, 4)
		if err != nil {
			return 0, 0, err
		}
		best = math.Min(best, sc)
	}
	return best / own, own, nil
}
