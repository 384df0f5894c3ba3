package distredge

import (
	"fmt"
	"testing"

	"distredge/internal/sim"
)

// The objective refactor's contract: with the default LatencyObjective,
// Plan and Evaluate at fixed seeds are bit-identical to the pre-refactor
// tree. The goldens below were captured from the tree at PR 4 (commit
// eeb640d) immediately before the Objective interface was threaded
// through the planner stack: exact strategies and %.17g-formatted metrics
// for three seeded configurations covering stable and dynamic traces and
// a fully-convolutional model. Any float-path change in the default
// planning pipeline shows up here as a golden mismatch — the same
// enforcement pattern as sim_equivalence_test.go, anchored to recorded
// values because the reference implementation is the history itself.
type goldenCase struct {
	name    string
	model   string
	provs   string
	seed    int64
	dynamic bool

	boundaries string
	splits     string
	evaluate   string // ips meanlat maxcomp maxtrans
	pipelined  string // ips steady meanlat p95 (window 4)
}

var goldenCases = []goldenCase{
	{
		name: "stable-db", model: "vgg16",
		provs: "xavier:200,xavier:200,nano:200,nano:200", seed: 1,
		boundaries: "[0 10 14 18]",
		splits:     "[[14 28 28] [7 14 14] [4 7 7]]",
		evaluate:   "ips=13.647642655961437 meanlat=73.272727401254841 maxcomp=46.854103439999996 maxtrans=24.483853308091891",
		pipelined:  "ips=17.401059148242258 steady=17.514274998091398 meanlat=223.0224091372894 p95=228.89267992468373",
	},
	{
		name: "dynamic-nano", model: "vgg16",
		provs: "nano:100,nano:100,tx2:100,nano:100", seed: 3, dynamic: true,
		boundaries: "[0 9 10 14 18]",
		splits:     "[[12 18 45] [7 13 21] [3 5 11] [2 3 6]]",
		evaluate:   "ips=5.0716556268183162 meanlat=197.17427080658197 maxcomp=96.043911418181807 maxtrans=82.839599490673351",
		pipelined:  "ips=6.1236911473050606 steady=6.151029858860948 meanlat=633.92764235790867 p95=670.37888987032784",
	},
	{
		name: "stable-yolo", model: "yolov2",
		provs: "nano:100,nano:100,nano:100,nano:100", seed: 2,
		boundaries: "[0 8 10 12 14 16 18 20 22 26]",
		splits:     "[[13 26 39] [13 26 39] [7 13 20] [7 13 20] [7 13 20] [3 7 10] [3 7 10] [3 7 10] [4 7 10]]",
		evaluate:   "ips=5.2308071398892153 meanlat=191.17508507896915 maxcomp=116.46855509545455 maxtrans=97.901719953685486",
		pipelined:  "ips=6.4541140879843892 steady=6.4875386116678921 meanlat=601.23659168895426 p95=618.61718719679368",
	},
}

func runGoldenCase(t *testing.T, c goldenCase, cfg PlanConfig) {
	t.Helper()
	provs, err := ParseProviders(c.provs)
	if err != nil {
		t.Fatal(err)
	}
	opts := []Option{WithSeed(c.seed)}
	if c.dynamic {
		opts = append(opts, WithDynamicNetwork())
	}
	sys, err := New(c.model, provs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Effort = EffortTiny
	plan, err := sys.Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%v", plan.Strategy.Boundaries); got != c.boundaries {
		t.Errorf("boundaries %s != golden %s", got, c.boundaries)
	}
	if got := fmt.Sprintf("%v", plan.Strategy.Splits); got != c.splits {
		t.Errorf("splits %s != golden %s", got, c.splits)
	}
	rep, err := sys.Evaluate(plan, 50)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("ips=%.17g meanlat=%.17g maxcomp=%.17g maxtrans=%.17g",
		rep.IPS, rep.MeanLatMS, rep.MaxCompMS, rep.MaxTransMS); got != c.evaluate {
		t.Errorf("Evaluate drifted from the pre-refactor tree:\n got  %s\n want %s", got, c.evaluate)
	}
	prep, err := sys.Serve(plan, sim.Scenario{Tenants: []sim.TenantSpec{{Images: 50}}, Window: 4, Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("ips=%.17g steady=%.17g meanlat=%.17g p95=%.17g",
		prep.IPS, prep.SteadyIPS, prep.MeanLatMS, prep.P95LatMS); got != c.pipelined {
		t.Errorf("pipelined Serve drifted from the pre-refactor tree:\n got  %s\n want %s", got, c.pipelined)
	}
}

// TestPlanEvaluateGoldenEquivalence pins the implicit default (no
// objective set) to the pre-refactor goldens.
func TestPlanEvaluateGoldenEquivalence(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) { runGoldenCase(t, c, PlanConfig{}) })
	}
}

// TestExplicitLatencyObjectiveMatchesGoldens pins that naming the latency
// objective explicitly takes the identical planning path — the objective
// plumbing must be invisible for the default.
func TestExplicitLatencyObjectiveMatchesGoldens(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			runGoldenCase(t, c, PlanConfig{Objective: ObjectiveLatency, ObjectiveWindow: 4})
		})
	}
}
