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
// a fully-convolutional model. They were re-pinned once since, when tiny
// effort stopped training an agent and started descending over cut points
// (same boundaries, higher IPS in all three). Any float-path change in the default
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
		splits:     "[[12 27 28] [4 14 14] [0 7 7]]",
		evaluate:   "ips=14.979570516099493 meanlat=66.757588204897914 maxcomp=51.506278800000004 maxtrans=27.650492255218193",
		pipelined:  "ips=19.299776345320755 steady=19.41510604110605 meanlat=201.07553430765614 p95=206.02528943962068",
	},
	{
		name: "dynamic-nano", model: "vgg16",
		provs: "nano:100,nano:100,tx2:100,nano:100", seed: 3, dynamic: true,
		boundaries: "[0 9 10 14 18]",
		splits:     "[[14 26 43] [7 13 21] [3 5 11] [0 1 6]]",
		evaluate:   "ips=6.9006170924091927 meanlat=144.91457598770677 maxcomp=102.44588538181817 maxtrans=83.540280747367618",
		pipelined:  "ips=8.5831820366420359 steady=8.6352237249328336 meanlat=452.17441318485783 p95=466.13397608259322",
	},
	{
		name: "stable-yolo", model: "yolov2",
		provs: "nano:100,nano:100,nano:100,nano:100", seed: 2,
		boundaries: "[0 8 10 12 14 16 18 20 22 26]",
		splits:     "[[13 26 37] [13 28 39] [7 13 20] [7 13 20] [7 13 20] [3 7 10] [3 7 8] [5 7 10] [4 7 10]]",
		evaluate:   "ips=5.3392098368609489 meanlat=187.2936315587709 maxcomp=116.61782724090909 maxtrans=95.517131872506013",
		pipelined:  "ips=6.50469747595195 steady=6.5403174542197169 meanlat=596.5742184478504 p95=614.28286513352509",
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
