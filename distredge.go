// Package distredge is the public API of this DistrEdge reproduction
// (Hou et al., "DistrEdge: Speeding up Convolutional Neural Network
// Inference on Distributed Edge Devices", IPDPS 2022).
//
// The typical flow mirrors the paper's deployment (Section IV): describe
// the service providers (device type + link bandwidth), pick a CNN from the
// model zoo, Plan a distribution strategy (LC-PSS horizontal partition +
// OSDS vertical split via DDPG), then Evaluate it on the simulator or
// Deploy it over real localhost TCP sockets.
//
//	sys, _ := distredge.New("vgg16", []distredge.Provider{
//		{Type: "xavier", BandwidthMbps: 200},
//		{Type: "xavier", BandwidthMbps: 200},
//		{Type: "nano", BandwidthMbps: 200},
//		{Type: "nano", BandwidthMbps: 200},
//	}, distredge.WithSeed(1))
//	plan, _ := sys.Plan(distredge.PlanConfig{Effort: distredge.EffortQuick})
//	report, _ := sys.Evaluate(plan, 500)
//	fmt.Printf("%.1f images/sec\n", report.IPS)
package distredge

import (
	"fmt"
	"sync"

	"distredge/internal/baselines"
	"distredge/internal/cnn"
	"distredge/internal/device"
	"distredge/internal/experiments"
	"distredge/internal/network"
	"distredge/internal/partition"
	"distredge/internal/plancache"
	"distredge/internal/runtime"
	"distredge/internal/sim"
	"distredge/internal/splitter"
	"distredge/internal/strategy"
)

// Provider describes one service provider: its hardware type and the
// nominal bandwidth of its WiFi link.
type Provider struct {
	Type          string  // "pi3", "nano", "tx2" or "xavier"
	BandwidthMbps float64 // nominal link bandwidth
}

// Effort selects a planning budget (see DESIGN.md): the paper's own
// configuration is EffortPaper; smaller efforts trade strategy quality for
// wall-clock. At EffortFull and EffortPaper DistrEdge is LC-PSS and the
// paper's DDPG search; at EffortTiny and EffortQuick it trains no agent:
// LC-PSS, OSDS's warm-start schedule, then a cut-point descent from the
// schedule's best.
type Effort string

// Planning efforts.
const (
	EffortTiny  Effort = "tiny"
	EffortQuick Effort = "quick"
	EffortFull  Effort = "full"
	EffortPaper Effort = "paper"
)

func (e Effort) budget() (experiments.Budget, error) {
	if e == "" {
		e = EffortQuick
	}
	b, ok := experiments.BudgetNamed(string(e))
	if !ok {
		return b, fmt.Errorf("distredge: unknown effort %q", e)
	}
	return b, nil
}

// Objective selects what the planner optimises (see DESIGN.md "Planning
// objectives").
type Objective string

// Planning objectives.
const (
	// ObjectiveLatency optimises sequential single-image end-to-end
	// latency — the paper's Eq. 8 reward, and the default. Planning under
	// it is bit-identical to the pre-objective planner at fixed seeds.
	ObjectiveLatency Objective = "latency"
	// ObjectiveIPS optimises sustained pipelined throughput: steady-state
	// images/sec with PlanConfig.ObjectiveWindow images in flight.
	ObjectiveIPS Objective = "ips"
	// ObjectiveSLO optimises sustained pipelined throughput subject to a
	// p95 admission-to-completion latency bound (PlanConfig.SLOP95MS): the
	// serving gateway's planning goal. Plans whose predicted p95 violates
	// the bound are penalised past any feasible plan's score.
	ObjectiveSLO Objective = "slo"
)

// PlanConfig configures Plan.
type PlanConfig struct {
	// Alpha is the LC-PSS transmission/operations trade-off (paper default
	// 0.75 when zero).
	Alpha float64
	// Effort selects the planning budget (default EffortQuick).
	Effort Effort
	// Objective selects the planning objective (default ObjectiveLatency).
	Objective Objective
	// ObjectiveWindow is the admission window ObjectiveIPS optimises for
	// (default 4; ignored for ObjectiveLatency).
	ObjectiveWindow int
	// ObjectiveBatch is the step-batching cap ObjectiveIPS plans for
	// (default 1 = no batching; ignored for ObjectiveLatency). Set it to
	// the runtime.Options.Batch the plan will be served with, so the
	// planner optimises for the throughput the batched pipeline actually
	// delivers.
	ObjectiveBatch int
	// SLOP95MS is the p95 admission-to-completion latency bound in
	// milliseconds that ObjectiveSLO plans under. Required (positive) for
	// ObjectiveSLO; ignored otherwise.
	SLOP95MS float64
}

// resolve turns the config into the one request the planner runs: the
// effort's budget at the given seed, α and the simulator objective. Alpha 0
// means the paper's 0.75, and an α outside [0,1] is refused. Plan,
// PlanCached and NewFinetuner all resolve through it, so they accept and
// refuse the same configs.
func (c PlanConfig) resolve(seed int64) (experiments.Request, error) {
	b, err := c.Effort.budget()
	if err != nil {
		return experiments.Request{}, err
	}
	b.Seed = seed
	alpha := c.Alpha
	if alpha == 0 {
		alpha = 0.75
	}
	if !(alpha >= 0 && alpha <= 1) {
		return experiments.Request{}, fmt.Errorf("distredge: alpha %g outside [0,1]", c.Alpha)
	}
	obj, err := c.simObjective()
	return experiments.Request{Budget: b, Alpha: alpha, Objective: obj}, err
}

// simObjective resolves the config into the simulator's objective value
// (nil for the latency default, preserving the bit-identical default
// planning path).
func (c PlanConfig) simObjective() (sim.Objective, error) {
	switch c.Objective {
	case "", ObjectiveLatency:
		return nil, nil
	case ObjectiveIPS:
		return sim.ThroughputObjective{Window: c.ObjectiveWindow, Batch: c.ObjectiveBatch}, nil
	case ObjectiveSLO:
		if !(c.SLOP95MS > 0) {
			return nil, fmt.Errorf("distredge: objective %q needs a positive SLOP95MS bound, got %g", c.Objective, c.SLOP95MS)
		}
		return sim.SLOThroughputObjective{Window: c.ObjectiveWindow, Batch: c.ObjectiveBatch, P95Sec: c.SLOP95MS / 1e3}, nil
	default:
		return nil, fmt.Errorf("distredge: unknown objective %q (want latency|ips|slo)", c.Objective)
	}
}

// Option customises New.
type Option func(*System)

// WithSeed fixes the random seed for deterministic planning.
func WithSeed(seed int64) Option {
	return func(s *System) { s.seed = seed }
}

// WithDynamicNetwork replaces the stable traces with highly fluctuating
// 40-100 Mbps traces (the paper's Fig. 12 regime); provider bandwidths are
// then ignored.
func WithDynamicNetwork() Option {
	return func(s *System) { s.dynamic = true }
}

// System binds a model to a concrete set of providers.
type System struct {
	env     *sim.Env // built by New and never replaced
	seed    int64
	dynamic bool

	fleetOnce sync.Once
	fleet     plancache.Signature // env's plan-cache signature; Cache.Plan keys each request's objective itself
}

// Models lists the available CNN models (the paper's full evaluation zoo).
func Models() []string { return cnn.ZooNames() }

// New builds a system for the named zoo model and providers.
func New(model string, providers []Provider, opts ...Option) (*System, error) {
	m, ok := cnn.Zoo()[model]
	if !ok {
		return nil, fmt.Errorf("distredge: unknown model %q (have %v)", model, cnn.ZooNames())
	}
	if len(providers) < 1 {
		return nil, fmt.Errorf("distredge: need at least one provider")
	}
	s := &System{seed: 1}
	for _, o := range opts {
		o(s)
	}
	devs := make([]device.Profile, len(providers))
	bws := make([]float64, len(providers))
	for i, p := range providers {
		d, err := device.New(device.Type(p.Type), fmt.Sprintf("%s-%d", p.Type, i))
		if err != nil {
			return nil, err
		}
		devs[i] = d
		bws[i] = p.BandwidthMbps
		if bws[i] <= 0 {
			return nil, fmt.Errorf("distredge: provider %d has non-positive bandwidth", i)
		}
	}
	var net *network.Network
	if s.dynamic {
		net = &network.Network{Requester: network.DefaultLink(network.Stable(300, 60, s.seed+997))}
		for i := range providers {
			net.Providers = append(net.Providers, network.DefaultLink(network.Dynamic(40, 100, 60, s.seed+int64(i)*31)))
		}
	} else {
		net = network.NewStable(bws, 60, s.seed)
	}
	s.env = &sim.Env{Model: m, Devices: device.AsModels(devs), Net: net}
	return s, nil
}

// Plan holds a distribution strategy and where it came from.
type Plan struct {
	Method   string
	Strategy *strategy.Strategy
}

// Plan runs the DistrEdge pipeline (LC-PSS + OSDS) for the configured
// objective and returns the chosen strategy. The default latency objective
// reproduces the paper's planner exactly; ObjectiveIPS trains the splitter
// against steady-state pipelined throughput instead (and additionally
// searches stage-friendly volume boundaries — see
// experiments.Request.Plan).
func (s *System) Plan(cfg PlanConfig) (*Plan, error) {
	req, err := cfg.resolve(s.seed)
	if err != nil {
		return nil, err
	}
	strat, err := req.Plan(s.env, nil, nil)
	if err != nil {
		return nil, err
	}
	return &Plan{Method: methodName(req.Objective), Strategy: strat}, nil
}

// methodName labels a DistrEdge plan with the objective it was planned for
// (obj as simObjective returns it: nil for the latency default).
func methodName(obj sim.Objective) string {
	if obj == nil {
		return experiments.MethodDistrEdge
	}
	return experiments.MethodDistrEdge + "-" + obj.Name()
}

// PlanCache is a bounded, concurrency-safe cache of planning results keyed
// by the canonical fleet signature (device set, network regime bucket,
// model, objective) and the planner's identity (the planning request's
// budget, α and seed — see internal/plancache). Share one across PlanCached
// calls and deployments: a repeat request for a fleet the cache has seen
// returns in microseconds instead of re-running the OSDS search, and a
// near-miss fleet plans from the nearest cached plan, on half the episode
// budget: below EffortFull it ranks that plan and OSDS's warm-start
// candidates and polishes the best by cut-point descent without training
// an agent, at EffortFull and above it warm-starts a half-budget search.
// The cache also remembers the LC-PSS boundaries of the plannings it ran,
// which depend on the model and the provider count only, so the fleets of
// one model and size partition the model once per cache.
type PlanCache struct {
	c     *plancache.Cache
	lcpss *partition.Memo
}

// NewPlanCache builds a plan cache bounding at most `capacity` entries
// (LRU eviction); capacity <= 0 uses the default of 256.
func NewPlanCache(capacity int) *PlanCache {
	return &PlanCache{c: plancache.New(capacity), lcpss: partition.NewMemo()}
}

// PlanCacheStats is a point-in-time snapshot of a cache's counters.
type PlanCacheStats struct {
	Entries   int    // plans currently cached
	Hits      uint64 // exact-signature hits (no search ran)
	Misses    uint64 // lookups that found nothing exact
	WarmHits  uint64 // misses that warm-started from a neighbour
	Evictions uint64 // entries dropped by the LRU bound
}

// Stats snapshots the cache counters.
func (pc *PlanCache) Stats() PlanCacheStats {
	s := pc.c.Stats()
	return PlanCacheStats{
		Entries:   pc.c.Len(),
		Hits:      s.Hits,
		Misses:    s.Misses,
		WarmHits:  s.WarmHits,
		Evictions: s.Evictions,
	}
}

// PlanOutcome reports how PlanCached served a request: "hit" (exact cached
// plan, no search), "warm" (search warm-started from the nearest cached
// neighbour) or "cold" (search from scratch).
type PlanOutcome string

// PlanCached outcomes.
const (
	PlanHit  PlanOutcome = PlanOutcome(plancache.OutcomeHit)
	PlanWarm PlanOutcome = PlanOutcome(plancache.OutcomeWarm)
	PlanCold PlanOutcome = PlanOutcome(plancache.OutcomeCold)
)

// PlanCached is Plan through the plan cache: an exact fleet-signature hit
// returns the cached strategy without searching, and a miss plans (warm-
// started when the cache holds a comparable neighbour) and caches the
// result for the next request. The key holds every planning input (fleet,
// objective, the effort's budget, α and the System's seed), so a hit is
// the plan a fresh cache would return. The System derives its fleet's
// signature on its first PlanCached and keeps it, so a hit costs a key and
// a lookup.
// Concurrent PlanCached calls against the same cache are safe, and calls
// for one fleet signature, from any System, are deduplicated single-flight:
// one searches and the others wait for its plan.
func (s *System) PlanCached(cfg PlanConfig, pc *PlanCache) (*Plan, PlanOutcome, error) {
	if pc == nil {
		p, err := s.Plan(cfg)
		return p, PlanCold, err
	}
	req, err := cfg.resolve(s.seed)
	if err != nil {
		return nil, "", err
	}
	s.fleetOnce.Do(func() { s.fleet = plancache.SignatureOf(s.env, nil) })
	sig := s.fleet
	sig.Planner = req.ID()
	res, err := pc.c.Plan(s.env, req.Objective, sig, req.Planner(pc.lcpss))
	if err != nil {
		return nil, "", err
	}
	// The cache owns its copy; hand the caller an independent one.
	return &Plan{Method: methodName(req.Objective), Strategy: res.Strategy.Clone()}, PlanOutcome(res.Outcome), nil
}

// CachedReplan wraps the recovery re-planner a deployment uses
// (runtime.Options.Replan, splitter.ObjectiveReplan of cfg's objective)
// with the plan cache: a recurring survivor-fleet shape re-plans from the
// cache in lookup time. Cached re-plans are scored under cfg's objective
// and keyed under their own planner, so a re-plan never answers a
// PlanCached request, nor a search a re-plan.
func (pc *PlanCache) CachedReplan(cfg PlanConfig) (sim.ReplanFunc, error) {
	obj, err := cfg.simObjective()
	if err != nil {
		return nil, err
	}
	return plancache.CachedReplan(pc.c, obj, plancache.PlannerID{Method: "ObjectiveReplan"}, splitter.ObjectiveReplan(obj)), nil
}

// Baselines lists the seven comparison methods of the paper (Section V-B).
func Baselines() []string {
	out := make([]string, 0, 7)
	for _, m := range baselines.All() {
		out = append(out, string(m))
	}
	return out
}

// Baseline plans with one of the paper's comparison methods instead of
// DistrEdge.
func (s *System) Baseline(method string) (*Plan, error) {
	strat, err := baselines.Plan(baselines.Method(method), s.env)
	if err != nil {
		return nil, err
	}
	return &Plan{Method: method, Strategy: strat}, nil
}

// Report summarises an evaluation.
type Report struct {
	IPS        float64
	MeanLatMS  float64
	MaxCompMS  float64
	MaxTransMS float64
	Volumes    int
}

// Evaluate streams `images` images through the plan on the simulator
// (paper metric: averaged images-per-second, Section V-A).
func (s *System) Evaluate(p *Plan, images int) (Report, error) {
	res, err := s.env.Stream(p.Strategy, images, 0)
	if err != nil {
		return Report{}, err
	}
	return Report{
		IPS:        res.IPS,
		MeanLatMS:  res.MeanLatMS,
		MaxCompMS:  res.Breakdown.MaxComp() * 1e3,
		MaxTransMS: res.Breakdown.MaxTrans() * 1e3,
		Volumes:    p.Strategy.NumVolumes(),
	}, nil
}

// PipelineReport summarises a pipelined (multi-image in flight) evaluation.
type PipelineReport struct {
	Window    int
	IPS       float64
	SteadyIPS float64
	MeanLatMS float64
	P95LatMS  float64
}

// Serve predicts the scenario on the simulator (sim.Env.Serve): one
// tenant is a window of images kept in flight (Window 1 is Evaluate's
// sequential protocol), several share the fleet under the admission
// policy, and Events script the fleet's churn, re-planned over the
// survivors by Replan when it is set. It is the twin of Cluster.Serve,
// which runs the same Scenario value on a deployed fleet and reports it in
// the same sim.ServeResult, in model time.
func (s *System) Serve(p *Plan, sc sim.Scenario) (sim.ServeResult, error) {
	return s.env.Serve(p.Strategy, sc)
}

// EvaluatePipelinedOpts is Serve for one tenant of `images` images with up
// to `window` of them in flight, summarised. batch is the step-batching cap
// and means what runtime.Options.Batch means: up to `batch` queued
// same-step images share one compute invocation under the runtime's
// amortised cost model; 1 (or negative) is no batching; 0 is the adaptive
// cap — a step drains whatever queued behind its busy device. wireFrac
// scales every transferred byte (transport.WireFrac of a quantizing codec;
// 0 or 1 = raw bytes).
func (s *System) EvaluatePipelinedOpts(p *Plan, images, window, batch int, wireFrac float64) (PipelineReport, error) {
	res, err := s.env.Serve(p.Strategy, sim.Scenario{
		Tenants: []sim.TenantSpec{{Images: images}},
		Window:  window, Batch: batch, WireFrac: wireFrac,
	})
	if err != nil {
		return PipelineReport{}, err
	}
	return PipelineReport{
		Window:    res.Window,
		IPS:       res.IPS,
		SteadyIPS: res.SteadyIPS,
		MeanLatMS: res.MeanLatMS,
		P95LatMS:  res.P95LatMS,
	}, nil
}

// Score evaluates a plan under a planning objective on the simulator;
// lower is better. The unit is seconds: end-to-end latency of one image
// for ObjectiveLatency, steady-state seconds per image with `window`
// images in flight for ObjectiveIPS (window 0 = the objective's default
// of 4).
func (s *System) Score(p *Plan, objective Objective, window int) (float64, error) {
	obj, err := PlanConfig{Objective: objective, ObjectiveWindow: window}.simObjective()
	if err != nil {
		return 0, err
	}
	return sim.Rank(s.env, obj, p.Strategy)
}

// RuntimeObjective resolves a PlanConfig into the sim.Objective a deployed
// cluster serves (nil for the latency default), so its recovery re-plans
// for that objective: pass splitter.ObjectiveReplan(obj), or a plan
// cache's CachedReplan, as runtime.Options.Replan. Set
// cfg.ObjectiveBatch to the step-batching cap the cluster serves with (0
// or 1 = no batching), so a recovery re-plan keeps optimising for the
// batched pipeline, and cfg.SLOP95MS when serving under ObjectiveSLO.
func RuntimeObjective(cfg PlanConfig) (sim.Objective, error) {
	return cfg.simObjective()
}

// Deploy executes the plan on the real runtime with emulated compute (see
// internal/runtime). The wire stack is opts.Transport — localhost TCP with
// the binary chunk codec when nil; see ParseTransport for the named stacks
// and ShapedTransportPostCodec for charging this system's WiFi traces to
// the wire.
// Close the returned cluster when done. Cluster.Serve runs a sim.Scenario —
// the value the simulator's Serve predicts — on the deployed fleet;
// Cluster.Submit is the one-image call it is built on, safe for concurrent
// callers (the gateway's backend). With opts.Replan set, a dying
// provider is quarantined and the strategy re-planned over the survivors
// under every caller, instead of failing them.
func (s *System) Deploy(p *Plan, opts runtime.Options) (*runtime.Cluster, error) {
	return runtime.Deploy(s.env, p.Strategy, opts)
}

// Describe renders the strategy in human-readable form.
func (p *Plan) Describe(modelName string) string {
	out := fmt.Sprintf("%s strategy for %s: %d layer-volume(s)\n", p.Method, modelName, p.Strategy.NumVolumes())
	for v := 0; v < p.Strategy.NumVolumes(); v++ {
		out += fmt.Sprintf("  volume %d: layers [%d,%d) cuts %v\n",
			v, p.Strategy.Boundaries[v], p.Strategy.Boundaries[v+1], p.Strategy.Splits[v])
	}
	return out
}

// SavePlan serialises a plan to versioned JSON (loadable with LoadPlan).
func (s *System) SavePlan(p *Plan) ([]byte, error) {
	return strategy.MarshalJSON(p.Strategy, s.env.Model.Name)
}

// LoadPlan parses a plan saved by SavePlan and validates it against this
// system's model and provider count.
func (s *System) LoadPlan(data []byte) (*Plan, error) {
	strat, err := strategy.UnmarshalJSON(data, s.env.Model, s.env.NumProviders())
	if err != nil {
		return nil, err
	}
	return &Plan{Method: "loaded", Strategy: strat}, nil
}

// DescribeModel returns the per-layer summary table of a zoo model.
func DescribeModel(model string) (string, error) {
	m, ok := cnn.Zoo()[model]
	if !ok {
		return "", fmt.Errorf("distredge: unknown model %q (have %v)", model, cnn.ZooNames())
	}
	return m.Summary(), nil
}

// Timeline renders a per-device Gantt chart of one image executing under
// the plan: scatter, halo transfers, per-volume compute, FC gather and the
// result's return.
func (s *System) Timeline(p *Plan) (string, error) {
	events, total, err := s.env.Timeline(p.Strategy, 0)
	if err != nil {
		return "", err
	}
	return sim.RenderTimeline(events, total, 72), nil
}

// Finetuner keeps a trained OSDS agent alive so it can be trained for more
// episodes — the mechanism of Section V-F's online adaptation. It trains
// against its System's environment, which New builds and nothing replaces,
// so it does not observe a network change by itself;
// experiments.Fig13DynamicLatency is the Section V-F experiment.
type Finetuner struct {
	trainer *splitter.Trainer
	sys     *System
	method  string
}

// NewFinetuner trains an agent once, for the configured objective and with
// the planner's own LC-PSS and OSDS configuration, and returns a handle for
// later finetuning. It trains at any effort. Under the default latency
// objective at EffortFull and EffortPaper the initial plan is Plan's; below
// EffortFull Plan trains no agent (see Effort), so the two differ.
func (s *System) NewFinetuner(cfg PlanConfig) (*Finetuner, *Plan, error) {
	req, err := cfg.resolve(s.seed)
	if err != nil {
		return nil, nil, err
	}
	tr, err := req.Trainer(s.env)
	if err != nil {
		return nil, nil, err
	}
	res := tr.Run()
	if res.Strategy == nil {
		return nil, nil, fmt.Errorf("distredge: training found no strategy")
	}
	ft := &Finetuner{trainer: tr, sys: s, method: methodName(req.Objective)}
	return ft, &Plan{Method: ft.method, Strategy: res.Strategy}, nil
}

// Finetune trains the live agent for a few more episodes against the
// system's environment — the same fleet and traces it was trained on —
// with a fresh best-strategy tracker, and returns the best plan of those
// episodes. It continues NewFinetuner's search; it does not re-plan for a
// changed fleet.
func (f *Finetuner) Finetune(episodes int) (*Plan, error) {
	res := f.trainer.Finetune(f.sys.env, episodes)
	if res.Strategy == nil {
		return nil, fmt.Errorf("distredge: finetune found no strategy")
	}
	return &Plan{Method: f.method, Strategy: res.Strategy}, nil
}
