package experiments

import (
	"fmt"

	"distredge/internal/baselines"
	"distredge/internal/sim"
	"distredge/internal/strategy"
)

// Budget scales the planning effort so the same harnesses serve unit tests,
// `go test -bench` and full distbench reproductions. Paper-scale is
// Max_ep=4000 with {400,200,100} networks; thanks to OSDS's best-strategy
// tracking, smaller budgets return the best strategy they visited.
type Budget struct {
	Episodes     int   // OSDS training episodes
	Hidden       []int // actor hidden sizes
	Batch        int   // minibatch size
	RandomSplits int   // LC-PSS |R^r_s|
	StreamImages int   // images per IPS measurement (paper: 5000)
	Seed         int64

	// Parallel is the worker-pool size for the case×method grids of the
	// figure harnesses: 0/1 = serial, N > 1 = N workers, negative = one
	// worker per CPU. Results are byte-identical for any value — every
	// grid task derives its environment and seeds deterministically from
	// its own coordinates and writes to its own result slot.
	Parallel int
}

// Tiny is for unit tests: seconds per case. Its 25 episodes are below
// Full's, so a plan trains no agent: Request.Plan runs LC-PSS, the
// warm-start schedule and the cut-point descent (splitter.Descend).
func Tiny() Budget {
	return Budget{Episodes: 25, Hidden: []int{16, 16}, Batch: 16, RandomSplits: 20, StreamImages: 25, Seed: 1}
}

// Quick is for benchmarks and -quick reproductions. Like Tiny it is below
// Full's episode count, so a plan trains no agent (see Request.Plan): on
// Figs. 7–11 the descent ranks DistrEdge higher than the trained agent at
// this budget, in a fraction of the time.
func Quick() Budget {
	return Budget{Episodes: 100, Hidden: []int{32, 32}, Batch: 32, RandomSplits: 50, StreamImages: 200, Seed: 1}
}

// Full is the default distbench budget: close to paper-shaped results in
// minutes of wall clock. It is the smallest budget at which a plan trains
// the paper's DDPG agent.
func Full() Budget {
	return Budget{Episodes: 500, Hidden: []int{64, 64}, Batch: 64, RandomSplits: 100, StreamImages: 1000, Seed: 1}
}

// Paper is the paper's own configuration (Section V); hours of wall clock.
func Paper() Budget {
	return Budget{Episodes: 4000, Hidden: []int{400, 200, 100}, Batch: 64, RandomSplits: 100, StreamImages: 5000, Seed: 1}
}

// BudgetNamed returns the budget of a named planning effort: tiny, quick,
// full or paper. It is the one table the public Effort values and
// distbench's -budget flag read.
func BudgetNamed(name string) (Budget, bool) {
	switch name {
	case "tiny":
		return Tiny(), true
	case "quick":
		return Quick(), true
	case "full":
		return Full(), true
	case "paper":
		return Paper(), true
	}
	return Budget{}, false
}

// MethodDistrEdge is the method label for our system in result rows.
const MethodDistrEdge = "DistrEdge"

// MethodOrder returns the presentation order of Fig. 7-11: the seven
// baselines with DistrEdge inserted before Offload.
func MethodOrder() []string {
	return []string{"CoEdge", "MoDNN", "MeDNN", "DeepThings", "DeeperThings", "AOFL", MethodDistrEdge, "Offload"}
}

// MethodRow is one bar of an IPS figure: a method's streaming performance
// in one case, with the Fig. 15 breakdown attached.
type MethodRow struct {
	Case       string
	Method     string
	IPS        float64
	MeanLatMS  float64
	MaxCompMS  float64
	MaxTransMS float64
	Volumes    int
}

// runMethod plans and streams one (case, method) grid cell. The env is
// shared by all of the case's method cells — its latency caches and plan
// memo are concurrency-safe and bit-identical to direct evaluation, so
// sharing keeps rows byte-identical while reaping the cache across
// methods.
func runMethod(env *sim.Env, spec Spec, name string, b Budget) (MethodRow, error) {
	var s *strategy.Strategy
	var err error
	if name == MethodDistrEdge {
		s, err = Request{Budget: b, Alpha: 0.75}.Plan(env, nil, nil)
	} else {
		s, err = baselines.Plan(baselines.Method(name), env)
	}
	if err != nil {
		return MethodRow{}, fmt.Errorf("experiments: %s on %s: %w", name, spec.Name, err)
	}
	res, err := env.Stream(s, b.StreamImages, 0)
	if err != nil {
		return MethodRow{}, fmt.Errorf("experiments: %s on %s: %w", name, spec.Name, err)
	}
	return MethodRow{
		Case:       spec.Name,
		Method:     name,
		IPS:        res.IPS,
		MeanLatMS:  res.MeanLatMS,
		MaxCompMS:  res.Breakdown.MaxComp() * 1e3,
		MaxTransMS: res.Breakdown.MaxTrans() * 1e3,
		Volumes:    s.NumVolumes(),
	}, nil
}

// RunCases evaluates the full case×method grid of the given specs on the
// budget's worker pool and returns the rows in deterministic order (specs
// in input order, methods in MethodOrder), byte-identical for any worker
// count.
func RunCases(specs []Spec, b Budget) ([]MethodRow, error) {
	methods := MethodOrder()
	envs := make([]*sim.Env, len(specs))
	for i, spec := range specs {
		envs[i] = spec.Env()
	}
	rows := make([]MethodRow, len(specs)*len(methods))
	err := runIndexed(len(rows), b.Workers(), func(i int) error {
		c := i / len(methods)
		var err error
		rows[i], err = runMethod(envs[c], specs[c], methods[i%len(methods)], b)
		return err
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RunCase evaluates every method of MethodOrder on the spec and returns one
// row per method. The DistrEdge α is fixed to the paper's 0.75.
func RunCase(spec Spec, b Budget) ([]MethodRow, error) {
	return RunCases([]Spec{spec}, b)
}

// BestBaselineIPS returns the best non-DistrEdge, non-Offload IPS in rows —
// the comparison point for the paper's "1.1-3x over the best baseline".
func BestBaselineIPS(rows []MethodRow) float64 {
	var best float64
	for _, r := range rows {
		if r.Method == MethodDistrEdge {
			continue
		}
		if r.IPS > best {
			best = r.IPS
		}
	}
	return best
}

// FindRow returns the row of the given method, or false.
func FindRow(rows []MethodRow, method string) (MethodRow, bool) {
	for _, r := range rows {
		if r.Method == method {
			return r, true
		}
	}
	return MethodRow{}, false
}
