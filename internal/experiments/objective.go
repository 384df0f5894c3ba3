package experiments

import (
	"fmt"
	"math"
	"runtime"

	"distredge/internal/cnn"
	"distredge/internal/device"
	"distredge/internal/network"
	"distredge/internal/partition"
	"distredge/internal/sim"
	"distredge/internal/splitter"
	"distredge/internal/strategy"
)

// Planner labels for the objective sweep rows.
const (
	PlannerLatency = "latency"
	PlannerIPS     = "ips"
)

// PlanObjective plans a strategy for the given objective: LC-PSS, then one
// OSDS search per boundary set with Config.Objective set, every candidate
// scored by the objective at trace time 0 and the best one returned. The
// latency default (nil or sim.LatencyObjective) searches the LC-PSS
// boundaries only and is exactly PlanDistrEdge — the paper's pipeline,
// bit-identical to the pre-objective planner. For other objectives two
// extensions matter for throughput:
//
//   - besides the LC-PSS boundaries the search also tries the pool-merged
//     stage boundaries (StageBoundaries): a stage layout needs roughly one
//     volume per provider before an admission window can fill, and LC-PSS
//     — which scores sequential latency — often merges to fewer;
//   - the noiseless StageStrategy anchor of each boundary set is scored
//     directly (warm-start episodes add exploration noise, so the exact
//     layout may never appear as an episode).
func PlanObjective(env *sim.Env, b Budget, alpha float64, obj sim.Objective) (*strategy.Strategy, error) {
	return PlanObjectiveInit(env, b, alpha, obj, nil, nil)
}

// PlanObjectiveInit is PlanObjective with an optional warm-start seed: init
// is a known-good strategy for this exact fleet shape (same provider count)
// that the search explores outward from. The seed's splits feed the
// splitter's Config.InitSplits (scheduled as the first warm episode, so the
// best-strategy tracker is anchored from episode 0), the seed's own volume
// boundaries join the boundary sets searched, and the seed itself is scored
// as a candidate — so the returned plan never scores worse than the seed
// under the requested objective. Because the seed anchors the search,
// warm-started searches run on half the episode budget: that is where the
// plan-cache's warm-start throughput win comes from (measured by
// BenchmarkPlannerService and the `distbench -fig planner` sweep). The LC-PSS
// boundaries come from memo, which nil turns off.
func PlanObjectiveInit(env *sim.Env, b Budget, alpha float64, obj sim.Objective, init *strategy.Strategy, memo *partition.Memo) (*strategy.Strategy, error) {
	n := env.NumProviders()
	if init != nil {
		if err := init.Validate(env.Model, n); err != nil {
			return nil, fmt.Errorf("experiments: warm-start seed: %w", err)
		}
	}
	lcp, err := lcpss(memo, env, b, alpha)
	if err != nil {
		return nil, fmt.Errorf("experiments: LC-PSS: %w", err)
	}
	boundarySets := [][]int{lcp}
	addBoundaries := func(bs []int) {
		for _, have := range boundarySets {
			if equalBoundaries(have, bs) {
				return
			}
		}
		boundarySets = append(boundarySets, bs)
	}
	if init != nil {
		addBoundaries(init.Boundaries)
	}
	if !sim.IsLatencyObjective(obj) {
		addBoundaries(StageBoundaries(env.Model, n))
	}
	scorer := sim.DefaultObjective(obj)
	var best *strategy.Strategy
	bestScore := math.Inf(1)
	consider := func(s *strategy.Strategy) error {
		sc, err := scorer.Score(env, s, 0)
		if err != nil {
			return err
		}
		if sc < bestScore {
			best, bestScore = s, sc
		}
		return nil
	}
	cfg := osdsConfig(b, n, b.Seed)
	cfg.Objective = obj
	if init != nil {
		if err := consider(init); err != nil {
			return nil, err
		}
		cfg.Episodes = (b.Episodes + 1) / 2
		cfg.InitSplits = init.Splits
	}
	results, err := searchBoundarySets(env, boundarySets, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: OSDS (%s): %w", scorer.Name(), err)
	}
	for i, boundaries := range boundarySets {
		if err := consider(results[i].Strategy); err != nil {
			return nil, err
		}
		if !sim.IsLatencyObjective(obj) {
			if err := consider(StageStrategy(env.Model, boundaries, n)); err != nil {
				return nil, err
			}
		}
	}
	return best, nil
}

// searchBoundarySets runs one OSDS search per boundary set, on as many
// goroutines as GOMAXPROCS allows, and returns the results in boundary-set
// order or the error of the lowest-index set that failed. Each search owns
// its agent and seed and the env's caches are safe to share, so every
// result is the one a serial search returns: the plan stays a pure
// function of the seed on any core count.
func searchBoundarySets(env *sim.Env, sets [][]int, cfg splitter.Config) ([]*splitter.Result, error) {
	results := make([]*splitter.Result, len(sets))
	err := runIndexed(len(sets), runtime.GOMAXPROCS(0), func(i int) error {
		res, err := splitter.Search(env, sets[i], cfg)
		results[i] = res
		return err
	})
	return results, err
}

func equalBoundaries(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ObjectiveRow is one cell of the planning-objective sweep: a case's
// strategy — planned for sequential latency or for sustained IPS — served
// with the given admission window.
type ObjectiveRow struct {
	Case      string
	Planner   string // PlannerLatency or PlannerIPS
	Window    int
	IPS       float64
	SteadyIPS float64
	MeanLatMS float64
	P95LatMS  float64
}

// objectiveCase is one case of the objective sweep. Cases carry an env
// constructor rather than a Spec because the sweep covers both trace
// regimes: Spec materialises stable traces only, while the dynamic case
// mirrors WithDynamicNetwork's highly fluctuating 40-100 Mbps links.
type objectiveCase struct {
	name string
	env  func() *sim.Env
}

func objectiveCases(seed int64) []objectiveCase {
	stable := DeviceGroups()[1].Spec(cnn.VGG16(), 200, seed)
	return []objectiveCase{
		{stable.Name, stable.Env},
		{"NanoX4-dyn40-100-yolov2", func() *sim.Env {
			devs := device.Fleet(device.Nano, device.Nano, device.Nano, device.Nano)
			net := &network.Network{Requester: network.DefaultLink(network.Stable(300, 60, seed+997))}
			for i := range devs {
				net.Providers = append(net.Providers, network.DefaultLink(network.Dynamic(40, 100, 60, seed+int64(i)*31)))
			}
			return &sim.Env{Model: cnn.YOLOv2(), Devices: device.AsModels(devs), Net: net}
		}},
	}
}

// FigObjective compares the latency-optimal planner against the
// throughput-optimal (IPS) planner across admission windows, on a stable
// and a highly dynamic trace case: each planner's strategy is streamed
// with every window and reported as sustained/steady IPS plus the
// latency distribution. The IPS planner trains against
// sim.ThroughputObjective at objWindow (default 4). Cases run on the
// budget's worker pool; rows are deterministic for any worker count.
func FigObjective(b Budget, windows []int, objWindow int) ([]ObjectiveRow, error) {
	if len(windows) == 0 {
		windows = DefaultWindows()
	}
	if objWindow <= 0 {
		objWindow = 4
	}
	cases := objectiveCases(b.Seed)
	perCase := make([][]ObjectiveRow, len(cases))
	err := runIndexed(len(cases), b.Workers(), func(ci int) error {
		c := cases[ci]
		env := c.env()
		planners := []struct {
			name string
			obj  sim.Objective
		}{
			{PlannerLatency, nil},
			{PlannerIPS, sim.ThroughputObjective{Window: objWindow}},
		}
		var rows []ObjectiveRow
		for _, pl := range planners {
			strat, err := PlanObjective(env, b, 0.75, pl.obj)
			if err != nil {
				return fmt.Errorf("experiments: objective sweep %s/%s: %w", c.name, pl.name, err)
			}
			for _, w := range windows {
				res, err := env.Serve(strat, pipelined(b.StreamImages, w))
				if err != nil {
					return fmt.Errorf("experiments: objective sweep %s/%s: %w", c.name, pl.name, err)
				}
				rows = append(rows, ObjectiveRow{
					Case:      c.name,
					Planner:   pl.name,
					Window:    w,
					IPS:       res.IPS,
					SteadyIPS: res.SteadyIPS,
					MeanLatMS: res.MeanLatMS,
					P95LatMS:  res.P95LatMS,
				})
			}
		}
		perCase[ci] = rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []ObjectiveRow
	for _, rows := range perCase {
		out = append(out, rows...)
	}
	return out, nil
}
