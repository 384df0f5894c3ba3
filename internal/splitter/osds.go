// Package splitter implements OSDS — Optimal Split Decision Search
// (Algorithm 2 of the DistrEdge paper): a DDPG agent that splits each
// layer-volume vertically across the service providers, observing the
// accumulated per-device latencies and the next volume's layer
// configuration (Eq. 7), acting in a continuous space mapped to cut points
// (Eq. 9), and rewarded with 1/T at the end of each episode (Eq. 8). The
// best strategy seen during training is kept (lines 24-26).
//
// Search is that algorithm. Descend is its agent-free counterpart, which
// the planner runs below full effort: the same warm-start episodes, then a
// cut-point descent from their best (see Descend; DESIGN.md gives the
// Figs. 7–11 comparison that chose it).
package splitter

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"distredge/internal/cnn"
	"distredge/internal/device"
	"distredge/internal/rl"
	"distredge/internal/sim"
	"distredge/internal/strategy"
)

// Config holds the OSDS hyper-parameters. Paper values (Section V):
// Max_ep=4000, σ²=0.1 (σ²=1 for 16 providers), Nb=64, actor
// {400,200,100}; γ=0.99, actor lr 1e-4 and critic lr 1e-3 are rl.Config's
// defaults, and ε decays over 85 % of the episodes (see train). Smaller
// budgets are used in tests and benchmarks; thanks to best-strategy
// tracking, short runs still return the best strategy they visited.
type Config struct {
	Episodes int
	Hidden   []int
	Batch    int
	SigmaSq  float64 // exploration noise variance σ²
	Seed     int64

	// WarmStart seeds the first episodes with profile-guided balanced
	// splits (an engineering addition documented in DESIGN.md; the paper's
	// agent similarly consumes device profiles). Disable to run pure
	// Algorithm 2.
	WarmStart bool
	// InitSplits seeds one extra warm-start episode with a known-good split
	// decision per volume — churn recovery passes the pre-failure strategy
	// projected onto the survivors, so the search explores outward from the
	// deployment that was just working. Requires WarmStart; entries whose
	// cut count does not match the provider count fall back to balanced
	// cuts.
	InitSplits [][]int

	// Objective selects what the search optimises. Nil (or
	// sim.LatencyObjective) trains on sequential end-to-end latency —
	// the paper's 1/T reward, bit-identical to the pre-objective
	// planner. sim.ThroughputObjective rewards steady-state pipelined
	// seconds per image instead, adds a stage-layout warm-start family
	// (volume v entirely on provider v mod n — the family Fig. 16 shows
	// filled pipelines favour), and makes best-strategy tracking keep
	// the highest-throughput strategy visited.
	Objective sim.Objective
}

func (c Config) withDefaults() Config {
	if c.Episodes == 0 {
		c.Episodes = 4000
	}
	if len(c.Hidden) == 0 {
		c.Hidden = []int{400, 200, 100}
	}
	if c.Batch == 0 {
		c.Batch = 64
	}
	if c.SigmaSq == 0 {
		c.SigmaSq = 0.1
	}
	return c
}

// Result summarises a search. Scores are objective scores: end-to-end
// seconds per image under the default latency objective, steady-state
// seconds per image under the throughput objective — lower is better
// either way.
type Result struct {
	Strategy    *strategy.Strategy
	BestLatency float64   // best objective score observed
	Episodes    []float64 // per-episode objective score
}

// Trainer is a reusable OSDS trainer; keeping it alive enables the online
// finetuning of Section V-F (the actor network stays on the controller and
// is finetuned when network conditions shift).
type Trainer struct {
	env        *sim.Env
	boundaries []int
	cfg        Config
	obj        sim.Objective
	agent      *rl.Agent
	rng        *rand.Rand
	exec       sim.Exec // reusable per-episode executor

	// Episode buffers, sized by NewTrainer and rewritten by every episode,
	// so a steady-state episode allocates nothing. states[v] is the OSDS
	// state before volume v is split and states[numVol] the all-zero
	// terminal next-state; actions[v] is the raw actor output for volume v;
	// vecs backs both. The replay buffer copies them. strat is the
	// episode's strategy: mapAction writes its Splits in place and the
	// environment's plan memo recompiles it in place. bestCopy holds the
	// best strategy seen, copied over on each new best; splits backs the
	// Splits of both.
	vecs            []float64
	states, actions [][]float64
	splits          []int
	sorted          []float64 // mapAction's sort buffer
	cuts            []int     // a warm-start candidate's cuts
	sched           []int     // warmSchedule's buffer
	strat           strategy.Strategy
	bestCopy        strategy.Strategy
	warm            warmScratch

	// State normalisation scales derived from the model.
	latScale float64
	hScale   float64
	cScale   float64

	best  *strategy.Strategy // &bestCopy once an episode succeeded, else nil
	bestT float64
	hist  []float64
}

// trainers holds the Trainers that finished Searches released (see
// release): a search of any shape reuses one's buffers, resized in place.
// Like the agent pool in internal/rl, it is the process's one pool, and
// the GC releases whatever stays idle over two collections.
var trainers sync.Pool // of *Trainer

// NewTrainer builds a trainer for splitting the given partition scheme on
// the environment.
func NewTrainer(env *sim.Env, boundaries []int, cfg Config) (*Trainer, error) {
	return newTrainer(env, boundaries, cfg, true)
}

// newTrainer is NewTrainer; without learn it builds no agent, and the
// trainer plays its warm-start schedule only (see Descend).
func newTrainer(env *sim.Env, boundaries []int, cfg Config, learn bool) (*Trainer, error) {
	cfg = cfg.withDefaults()
	n := env.NumProviders()
	if n < 2 {
		return nil, fmt.Errorf("splitter: need at least 2 providers, got %d", n)
	}
	if len(boundaries) < 2 {
		return nil, fmt.Errorf("splitter: invalid boundaries %v", boundaries)
	}
	var agent *rl.Agent
	if learn {
		var err error
		agent, err = rl.New(rl.Config{
			StateDim:  n + 4,
			ActionDim: n - 1,
			Hidden:    cfg.Hidden,
			Seed:      cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
	}
	t, _ := trainers.Get().(*Trainer)
	if t == nil {
		t = &Trainer{rng: rand.New(rand.NewSource(cfg.Seed + 17))}
	}
	t.env, t.boundaries, t.cfg, t.agent = env, boundaries, cfg, agent
	t.obj = sim.DefaultObjective(cfg.Objective)
	t.rng.Seed(cfg.Seed + 17)
	t.exec.ResetEnv(env, boundaries, 0)
	t.best, t.bestT, t.hist = nil, math.Inf(1), t.hist[:0]
	t.sorted, t.cuts = resize(t.sorted, n-1), resize(t.cuts, n-1)

	numVol := len(boundaries) - 1
	ds, da := n+4, n-1
	t.vecs = resize(t.vecs, (numVol+1)*ds+numVol*da)
	t.states, t.actions = resize(t.states, numVol+1), resize(t.actions, numVol)
	vecs := t.vecs
	for v := range t.states {
		t.states[v], vecs = vecs[:ds:ds], vecs[ds:]
	}
	for v := range t.actions {
		t.actions[v], vecs = vecs[:da:da], vecs[da:]
	}
	t.splits = resize(t.splits, 2*numVol*da)
	splits := t.splits
	for _, s := range []*strategy.Strategy{&t.strat, &t.bestCopy} {
		s.Boundaries, s.Splits = boundaries, resize(s.Splits, numVol)
		for v := range s.Splits {
			s.Splits[v], splits = splits[:da:da], splits[da:]
		}
	}
	t.deriveScales()
	return t, nil
}

// release hands the trainer and its agent, if it has one, back for later
// searches to reuse. Only a one-shot Search or Descend releases its
// trainer: one kept alive for Finetune never is.
func (t *Trainer) release() {
	if t.agent != nil {
		t.agent.Release()
	}
	t.env, t.boundaries, t.cfg, t.obj, t.agent, t.best = nil, nil, Config{}, nil, nil, nil
	t.strat.Boundaries, t.bestCopy.Boundaries = nil, nil
	trainers.Put(t)
}

// resize returns s resliced to n zeroed elements, or a new slice when s is
// too short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func (t *Trainer) deriveScales() {
	var hMax, cMax float64
	for _, l := range t.env.Model.SplittableLayers() {
		hMax = math.Max(hMax, float64(l.OutHeight()))
		cMax = math.Max(cMax, float64(l.OutDepth()))
	}
	t.hScale = math.Max(hMax, 1)
	t.cScale = math.Max(cMax, 1)
	// Latency scale: the whole model on the fastest provider.
	best := math.Inf(1)
	for _, d := range t.env.Devices {
		best = math.Min(best, device.ModelLatency(d, t.env.Model))
	}
	t.latScale = math.Max(best, 1e-3)
}

// state writes Eq. 7 into dst: accumulated latencies plus the
// configuration (H, C, F, S) of the last layer of the upcoming volume;
// normalised.
func (t *Trainer) state(dst, acc []float64, vol []cnn.Layer) {
	n := t.env.NumProviders()
	for i, a := range acc {
		dst[i] = a / t.latScale
	}
	last := vol[len(vol)-1]
	dst[n] = float64(last.OutHeight()) / t.hScale
	dst[n+1] = float64(last.OutDepth()) / t.cScale
	dst[n+2] = float64(last.F) / 7
	dst[n+3] = float64(last.S) / 4
}

// mapAction converts a raw actor output ã ∈ [-1,1]^{n-1} into sorted cut
// points on height h (Eq. 9 with [A,B] = [-1,1]), written into cuts.
// sorted is scratch of the same length; raw is left as it is.
func mapAction(cuts []int, sorted, raw []float64, h int) []int {
	copy(sorted, raw)
	sort.Float64s(sorted)
	for i, v := range sorted {
		x := int(math.Round(float64(h) * (v + 1) / 2))
		if x < 0 {
			x = 0
		}
		if x > h {
			x = h
		}
		if i > 0 && x < cuts[i-1] {
			x = cuts[i-1]
		}
		cuts[i] = x
	}
	return cuts
}

// actionFromCuts inverts mapAction for warm-start episodes, writing into
// raw.
func actionFromCuts(raw []float64, cuts []int, h int) []float64 {
	for i, c := range cuts {
		raw[i] = 2*float64(c)/float64(h) - 1
	}
	return raw
}

// warmScratch holds the buffers of the warm-start heuristics, sized for
// one provider count on first use and resized in place when it changes.
type warmScratch struct {
	lats, weights []float64
	order, cand   []int
	allowed       []bool
}

func (w *warmScratch) size(n int) {
	if len(w.lats) != n {
		w.lats, w.weights = resize(w.lats, n), resize(w.weights, n)
		w.order, w.cand = resize(w.order, n), resize(w.cand, n-1)
		w.allowed = resize(w.allowed, n)
	}
}

// balancedAll computes a profile-guided balanced split of a volume over all
// providers into dst (see balanced).
func (w *warmScratch) balancedAll(dst []int, env *sim.Env, layers []cnn.Layer, h int) []int {
	w.size(env.NumProviders())
	for i := range w.allowed {
		w.allowed[i] = true
	}
	return w.balanced(dst, env, layers, h, w.allowed)
}

// balanced computes a profile-guided balanced split of a volume restricted
// to the allowed providers into dst: proportional to per-device volume
// throughput, then hill-climbed on the true per-part compute latency. Used
// for warm-start episodes and the balanced re-planner.
func (w *warmScratch) balanced(dst []int, env *sim.Env, layers []cnn.Layer, h int, allowed []bool) []int {
	n := env.NumProviders()
	w.size(n)
	full := cnn.RowRange{Lo: 0, Hi: h}
	weights := w.weights
	for i := range env.Devices {
		weights[i] = 0
		if !allowed[i] {
			continue
		}
		lat := env.VolumeLatency(i, layers, full)
		if lat > 0 {
			weights[i] = 1 / lat
		}
	}
	cuts := strategy.ProportionalCutsInto(dst, h, weights)
	partLat := func(cuts []int) float64 {
		var worst float64
		for i := 0; i < n; i++ {
			part := strategy.CutRange(cuts, h, i)
			if part.Empty() {
				continue
			}
			if !allowed[i] {
				// A cut move may not hand rows to an excluded provider —
				// for churn re-planning, "excluded" means dead.
				return math.Inf(1)
			}
			lat := env.VolumeLatency(i, layers, part)
			if lat > worst {
				worst = lat
			}
		}
		return worst
	}
	cur := partLat(cuts)
	cand := w.cand
	for iter := 0; iter < 24; iter++ {
		improved := false
		for ci := range cuts {
			for _, d := range climbDeltas {
				copy(cand, cuts)
				cand[ci] += d
				if cand[ci] < 0 || cand[ci] > h {
					continue
				}
				if ci > 0 && cand[ci] < cand[ci-1] {
					continue
				}
				if ci+1 < len(cand) && cand[ci] > cand[ci+1] {
					continue
				}
				if l := partLat(cand); l < cur {
					copy(cuts, cand)
					cur = l
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	return cuts
}

// climbDeltas are the hill-climbing moves of balancedCutsSubset.
var climbDeltas = [...]int{-4, -1, 1, 4}

// numWarmCandidates is the number of distinct warm-start strategy families
// tried before DDPG exploration takes over.
const numWarmCandidates = 4

// stageWarmKind is the stage-pipelined warm candidate (volume v entirely
// on provider v mod n), scheduled only under non-latency objectives: it is
// the family filled admission windows favour (Fig. 16), and under the
// default latency objective its absence keeps the schedule — and therefore
// the whole search — bit-identical to the pre-objective planner.
const stageWarmKind = numWarmCandidates

// initWarmKind is the extra warm candidate fed from Config.InitSplits.
const initWarmKind = numWarmCandidates + 1

// warmSchedule lists the warm-start kind of each leading episode: the
// InitSplits seed first (when provided), then the stage family under a
// throughput-style objective, then the four heuristic families, capped at
// half the episode budget. floorOne keeps at least one warm episode for
// any positive budget (Finetune's behaviour). The schedule is written over
// dst's storage.
func warmSchedule(dst []int, cfg Config, episodes int, floorOne bool) []int {
	if !cfg.WarmStart {
		return nil
	}
	kinds := dst[:0]
	if cfg.InitSplits != nil {
		kinds = append(kinds, initWarmKind)
	}
	if !sim.IsLatencyObjective(cfg.Objective) {
		kinds = append(kinds, stageWarmKind)
	}
	kinds = append(kinds, 0, 1, 2, 3)
	max := episodes / 2
	if floorOne && max < 1 && episodes > 0 {
		max = 1
	}
	if max < 0 {
		max = 0
	}
	if len(kinds) > max {
		kinds = kinds[:max]
	}
	return kinds
}

// initCuts writes the InitSplits seed for volume v into dst, clamped to a
// valid sorted cut list on height h; shape mismatches fall back to balanced
// cuts.
func (t *Trainer) initCuts(dst []int, vol []cnn.Layer, v, h int) []int {
	n := t.env.NumProviders()
	if v >= len(t.cfg.InitSplits) || len(t.cfg.InitSplits[v]) != n-1 {
		return t.warm.balancedAll(dst, t.env, vol, h)
	}
	cuts := dst
	copy(cuts, t.cfg.InitSplits[v])
	sort.Ints(cuts)
	for i := range cuts {
		if cuts[i] < 0 {
			cuts[i] = 0
		}
		if cuts[i] > h {
			cuts[i] = h
		}
	}
	return cuts
}

// cuts writes the cut points of warm-start candidate `kind` on one volume
// into dst. The candidates cover the strategy families the optimum tends
// to live in, so the best-strategy tracker starts from a strong anchor:
//
//	0 — compute-balanced across all providers
//	1 — everything on the single fastest provider (offload-shaped)
//	2 — balanced across the fastest half of the providers
//	3 — balanced across the fastest two providers
func (w *warmScratch) cuts(dst []int, env *sim.Env, layers []cnn.Layer, h, kind int) []int {
	n := env.NumProviders()
	w.size(n)
	full := cnn.RowRange{Lo: 0, Hi: h}
	lats, order := w.lats, w.order
	for i := range env.Devices {
		lats[i] = env.VolumeLatency(i, layers, full)
		order[i] = i
	}
	// The generic sort runs sort.Slice's algorithm with the same
	// comparisons, so ties among equally fast providers order as before.
	slices.SortFunc(order, func(a, b int) int {
		switch {
		case lats[a] < lats[b]:
			return -1
		case lats[b] < lats[a]:
			return 1
		}
		return 0
	})

	allow := func(k int) []bool {
		for i := range w.allowed {
			w.allowed[i] = false
		}
		for _, i := range order[:k] {
			w.allowed[i] = true
		}
		return w.allowed
	}
	switch kind {
	case 1:
		return strategy.AllOnProviderInto(dst, h, order[0])
	case 2:
		k := (n + 1) / 2
		if k < 1 {
			k = 1
		}
		return w.balanced(dst, env, layers, h, allow(k))
	case 3:
		k := 2
		if k > n {
			k = n
		}
		return w.balanced(dst, env, layers, h, allow(k))
	default:
		return w.balancedAll(dst, env, layers, h)
	}
}

// warmAction writes the action of warm-start candidate `kind` for volume v
// into raw: the candidate's cut points as an action, plus a little noise.
func (t *Trainer) warmAction(raw []float64, vol []cnn.Layer, v, h, kind int) {
	n := t.env.NumProviders()
	var cuts []int
	switch kind {
	case initWarmKind:
		cuts = t.initCuts(t.cuts, vol, v, h)
	case stageWarmKind:
		cuts = strategy.AllOnProviderInto(t.cuts, h, v%n)
	default:
		cuts = t.warm.cuts(t.cuts, t.env, vol, h, kind)
	}
	actionFromCuts(raw, cuts, h)
	for i := range raw {
		raw[i] += float64(0.01 * t.rng.NormFloat64())
	}
}

// runEpisode plays one episode (Alg. 2 lines 6-23) and returns the
// episode's objective score (end-to-end latency under the default
// objective) and its strategy, which is the trainer's own and is rewritten
// by the next episode. warmKind >= 0 selects a warm-start candidate family;
// otherwise actions follow the ε-schedule.
func (t *Trainer) runEpisode(eps float64, warmKind int) (float64, *strategy.Strategy) {
	numVol := len(t.boundaries) - 1
	at := t.rng.Float64() * 300 // sample a trace instant
	x := &t.exec
	x.Reset(t.boundaries, at)
	sigma := math.Sqrt(t.cfg.SigmaSq)

	// The state before volume v+1 is volume v's next state; the terminal
	// next state stays all zero.
	t.state(t.states[0], x.Accumulated(), strategy.Volume(t.env.Model, t.boundaries, 0))
	for v := 0; v < numVol; v++ {
		vol := strategy.Volume(t.env.Model, t.boundaries, v)
		h := vol[len(vol)-1].OutHeight()
		st, raw := t.states[v], t.actions[v]
		switch {
		case warmKind >= 0:
			t.warmAction(raw, vol, v, h, warmKind)
		case t.rng.Float64() < eps:
			t.agent.NoisyAction(raw, st, sigma)
		default:
			t.agent.Action(raw, st)
		}
		x.Step(mapAction(t.strat.Splits[v], t.sorted, raw, h))
		if v+1 < numVol {
			t.state(t.states[v+1], x.Accumulated(), strategy.Volume(t.env.Model, t.boundaries, v+1))
		}
	}
	latency, _, err := x.Finish()
	if err != nil || latency <= 0 {
		return math.Inf(1), nil
	}
	// The episode score is the objective's view of the strategy: the
	// latency objective returns the already-simulated latency unchanged
	// (so the default search performs exactly the pre-objective float
	// sequence), while the throughput objective replays the strategy
	// pipelined and returns steady seconds per image.
	score, err := t.obj.EpisodeScore(t.env, &t.strat, at, latency)
	if err != nil || score <= 0 || math.IsInf(score, 0) {
		return math.Inf(1), nil
	}
	if t.agent == nil { // a schedule without an agent learns nothing
		return score, &t.strat
	}
	// Rewards: 0 for intermediate steps, 1/T at the terminal step (Eq. 8,
	// with T the objective score), scaled so typical returns are O(1).
	for v := 0; v < numVol; v++ {
		done := v == numVol-1
		r := 0.0
		if done {
			r = t.latScale / score
		}
		t.agent.Buf.Add(rl.Transition{State: t.states[v], Action: t.actions[v], Reward: r, NextState: t.states[v+1], Done: done})
		t.agent.Update(t.cfg.Batch)
	}
	return score, &t.strat
}

// record books one episode: its score joins the history, and its strategy
// is copied into bestCopy when it is the best seen.
func (t *Trainer) record(score float64, strat *strategy.Strategy) {
	t.hist = append(t.hist, score)
	if strat != nil && score < t.bestT {
		t.bestT = score
		for v, cuts := range strat.Splits {
			copy(t.bestCopy.Splits[v], cuts)
		}
		t.best = &t.bestCopy
	}
}

// result reports the run so far, with a copy of the best strategy and of
// the history that the caller owns.
func (t *Trainer) result() *Result {
	best, _ := t.Best()
	return &Result{Strategy: best, BestLatency: t.bestT, Episodes: append([]float64(nil), t.hist...)}
}

// Run trains for the configured number of episodes, tracking the best
// strategy observed.
func (t *Trainer) Run() *Result {
	t.train(t.cfg.Episodes, false)
	return t.result()
}

// Best returns a copy of the best strategy observed so far (nil when no
// episode succeeded) and its score.
func (t *Trainer) Best() (*strategy.Strategy, float64) {
	if t.best == nil {
		return nil, t.bestT
	}
	return t.best.Clone(), t.bestT
}

// Finetune re-targets the trainer at a changed environment (e.g. new
// network conditions, Section V-F) and trains for a few extra episodes,
// reusing the learned actor/critic. The best-strategy tracker is reset
// because old latencies are no longer comparable.
func (t *Trainer) Finetune(env *sim.Env, episodes int) *Result {
	t.env = env
	t.exec.ResetEnv(env, t.boundaries, 0)
	t.deriveScales()
	t.best = nil
	t.bestT = math.Inf(1)
	t.hist = t.hist[:0]
	t.train(episodes, true)
	return t.result()
}

// train plays episodes episodes (Alg. 2's outer loop), the warm-start
// schedule first, and books each one; a trainer without an agent stops
// after the schedule. A first run decays ε from 1 to a 0.05 floor over
// 85 % of the configured episodes; a finetune explores at a fixed ε of 0.3
// and keeps at least one warm episode.
func (t *Trainer) train(episodes int, finetune bool) {
	t.sched = warmSchedule(t.sched, t.cfg, episodes, finetune)
	if t.agent == nil {
		episodes = len(t.sched)
	}
	t.hist = slices.Grow(t.hist, episodes)
	slope := 1 / (0.85 * float64(t.cfg.Episodes))
	for ep := 0; ep < episodes; ep++ {
		eps := 0.3
		if !finetune {
			e := float64(ep) * slope
			eps = max(1-float64(e*e), 0.05)
		}
		warmKind := -1
		if ep < len(t.sched) {
			warmKind = t.sched[ep]
		}
		t.record(t.runEpisode(eps, warmKind))
	}
}

// Search is the one-shot convenience API: train a fresh agent and return
// the best strategy found (Algorithm 2 end-to-end).
func Search(env *sim.Env, boundaries []int, cfg Config) (*Result, error) {
	return search(env, boundaries, cfg, true)
}

// Descend is the agent-free search: it plays the first len(warmSchedule)
// episodes of Search(env, boundaries, cfg) — the same candidates, trace
// instants, noise draws and best-strategy tracker, so its per-episode
// scores are the first ones of Search's, bit for bit — builds no agent,
// and then polishes the schedule's best strategy by cut-point descent:
//
//   - a move shifts one cut of one volume by a step of the ladder 16, 8,
//     4, 2, 1 rows, down first, and never past a neighbouring cut or the
//     volume's edge; each step is swept over every cut until a sweep
//     improves nothing, then the next step is;
//   - each candidate is ranked through sim.Rank, the objective at instant
//     0, and only a strictly better one is kept;
//   - it stops at a ±1 local optimum, or after Episodes × volumes
//     candidate moves, the Exec steps Search's training would simulate;
//   - a cut is not ranked again while no move was kept since the sweep
//     before ranked it at the same step: its candidates would be rejected
//     again, so they count against the budget unranked.
//
// Result.Episodes holds the schedule's scores and BestLatency the returned
// strategy's rank. The moves rewrite the trainer's best-strategy buffer in
// place, so the environment's plan memo recompiles its plan in place and a
// move allocates nothing. A search without WarmStart has no schedule, so
// Descend finds no strategy.
func Descend(env *sim.Env, boundaries []int, cfg Config) (*Result, error) {
	return search(env, boundaries, cfg, false)
}

// descentSteps is Descend's step ladder, in rows.
var descentSteps = [...]int{16, 8, 4, 2, 1}

// descend polishes the best strategy by cut-point descent (see Descend)
// and leaves its rank in bestT.
func (t *Trainer) descend() {
	s := t.best
	if s == nil {
		return
	}
	cur, err := sim.Rank(t.env, t.obj, s)
	if err != nil {
		return
	}
	t.bestT = cur
	left := t.cfg.Episodes*(len(t.boundaries)-1) - 1 // candidate moves left
	for _, step := range descentSteps {
		// A sweep does not rank again the cuts after kept, the position of
		// the last move the sweep before it kept: that sweep ranked them,
		// and kept none, on the strategy this one holds until it keeps a
		// move. Their candidates still count against the budget. The first
		// sweep of a step ranks every cut.
		kept := math.MaxInt
		for improved := true; improved; {
			improved = false
			pos, moved := 0, -1
			for v, cuts := range s.Splits {
				h := strategy.VolumeHeight(t.env.Model, t.boundaries, v)
				for ci, old := range cuts {
					ranked := !improved && pos > kept
					lo, hi := 0, h
					if ci > 0 {
						lo = cuts[ci-1]
					}
					if ci+1 < len(cuts) {
						hi = cuts[ci+1]
					}
					for _, c := range [2]int{old - step, old + step} {
						if c < lo || c > hi {
							continue
						}
						if left == 0 {
							return
						}
						left--
						if ranked {
							continue
						}
						cuts[ci] = c
						if score, err := sim.Rank(t.env, t.obj, s); err == nil && score < cur {
							cur, t.bestT, improved, moved = score, score, true, pos
							break
						}
						cuts[ci] = old
					}
					pos++
				}
			}
			kept = moved
		}
	}
}

// search runs one pooled trainer to the end — trained with an agent when
// learn, else its warm-start schedule and the descent — and releases it.
func search(env *sim.Env, boundaries []int, cfg Config, learn bool) (*Result, error) {
	tr, err := newTrainer(env, boundaries, cfg, learn)
	if err != nil {
		return nil, err
	}
	tr.train(tr.cfg.Episodes, false)
	if !learn {
		tr.descend()
	}
	res := tr.result()
	tr.release()
	if res.Strategy == nil {
		return nil, fmt.Errorf("splitter: no valid strategy found")
	}
	return res, nil
}
