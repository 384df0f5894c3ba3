package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"distredge"
	"distredge/internal/cnn"
	"distredge/internal/experiments"
	"distredge/internal/gateway"
)

// Every serving workload runs the same model on the same fleet:
// heterogeneous devices and heterogeneous links, the paper's regime.
const (
	commonModel = "vgg16"
	commonFleet = "xavier:100,tx2:100,tx2:50,nano:50"

	// plannerSeed pins the planner's own random source. The seed argument
	// shapes what arrives (the open-loop schedule, the planning request
	// order); it does not re-roll the planner, because the planner's seed
	// alone moves its wall time by ±10 % (LC-PSS lands on a different
	// number of volumes, so the search does a different amount of work) and
	// a timing bound tighter than that could then not be held across seeds.
	plannerSeed = 1
)

// Workload names; BENCHMARK.json and every later issue use these.
const (
	wlPaperShaped = "paper-shaped"
	wlWireSmall   = "wire-small"
	wlWireLarge   = "wire-large"
	wlTenantsOpen = "tenants-open"
	wlPlanMix     = "plan-mix"
)

var workloadNames = []string{wlPaperShaped, wlWireSmall, wlWireLarge, wlTenantsOpen, wlPlanMix}

// servingWorkload is one way of loading the deployed fleet.
type servingWorkload struct {
	name string
	// window is the gateway's global admission window; closed loops keep
	// exactly this many requests outstanding.
	window                int
	timeScale, bytesScale float64
	// shaped charges the fleet's link traces to every payload byte
	// (ShapedTransportPostCodec over tcp); otherwise the wire is free tcp.
	shaped bool
	open   bool
	policy string
	// plan picks the strategy to deploy.
	plan func(sys *distredge.System, effort distredge.Effort) (*distredge.Plan, error)
}

func plannerPlan(sys *distredge.System, effort distredge.Effort) (*distredge.Plan, error) {
	return sys.Plan(commonPlanConfig(effort))
}

// commonPlanConfig is the planner's own throughput plan for the common
// fleet: what paper-shaped and tenants-open deploy, and what every serving
// workload's planner probe times.
func commonPlanConfig(effort distredge.Effort) distredge.PlanConfig {
	return distredge.PlanConfig{Effort: effort, Objective: distredge.ObjectiveIPS, ObjectiveWindow: 4}
}

var servingWorkloads = map[string]*servingWorkload{
	// The paper's regime: emulated compute and trace-charged links dominate,
	// so plan quality, pipelining and batching show here and wire/runtime
	// hot-path work must not.
	wlPaperShaped: {
		name: wlPaperShaped, window: 4, timeScale: 0.1, bytesScale: 0.01, shaped: true,
		policy: gateway.PolicyFIFO, plan: plannerPlan,
	},
	// Layer-by-layer over all four providers with a halo exchange at every
	// layer: ~86 messages and ~21 KB per image over a free wire with compute
	// scaled to nothing, so per-message cost does the work.
	wlWireSmall: {
		name: wlWireSmall, window: 8, timeScale: 1e-6, bytesScale: 0.01,
		policy: gateway.PolicyFIFO,
		plan: func(sys *distredge.System, _ distredge.Effort) (*distredge.Plan, error) {
			return sys.Baseline("CoEdge")
		},
	},
	// One whole volume per provider: 5 messages and ~3.1 MB per image at
	// full payload size, so bytes, copies, pool and codec do the work.
	wlWireLarge: {
		name: wlWireLarge, window: 8, timeScale: 1e-6, bytesScale: 1,
		policy: gateway.PolicyFIFO,
		plan: func(*distredge.System, distredge.Effort) (*distredge.Plan, error) {
			m := cnn.Zoo()[commonModel]
			return &distredge.Plan{
				Method:   experiments.MethodStage,
				Strategy: experiments.StageStrategy(m, experiments.StageBoundaries(m, 4), 4),
			}, nil
		},
	},
	// The paper-shaped deployment behind the gateway under an open-loop
	// arrival schedule: the only workload with a queue.
	wlTenantsOpen: {
		name: wlTenantsOpen, window: 4, timeScale: 0.1, bytesScale: 0.01, shaped: true,
		open: true, policy: gateway.PolicyWFQ, plan: plannerPlan,
	},
}

// The open-loop traffic mix: 93 requests/s in total, fixed — about 60 % of
// the paper-shaped deployment's capacity (156 img/s) when the benchmark was
// defined. It is never recomputed from a measurement. That capacity is set
// by latency (window 4 over 25.5 ms, most of it timer-bound sleeps), and on
// the 2-core VM a slow spell stretches those sleeps by a quarter for
// minutes at a time: at the 120 requests/s (77 %) first tried, such a spell
// tipped three runs in ten into overload — p95 past the 500 ms deadline,
// 8 % of requests late — which measures the VM, not the gateway.
const (
	heavyTenant    = "heavy"
	heavyBurst     = 8
	heavyBurstsSec = 6.0
	lightTenants   = 15
	lightRate      = 3.0 // requests/s per light tenant
	openDeadline   = 500 * time.Millisecond
	closedTenant   = "client"
	maxDrainSec    = 1.0 // an open-loop backlog older than this is overload
)

func (w *servingWorkload) tenants() []gateway.TenantConfig {
	if !w.open {
		return []gateway.TenantConfig{{Name: closedTenant, Weight: 1}}
	}
	ts := []gateway.TenantConfig{{Name: heavyTenant, Weight: 1, Deadline: openDeadline}}
	for i := 0; i < lightTenants; i++ {
		ts = append(ts, gateway.TenantConfig{Name: fmt.Sprintf("light-%d", i), Weight: 4, Deadline: openDeadline})
	}
	return ts
}

// arrival is one open-loop request: when it is due (ns after the load
// starts) and whose it is (index into tenants()).
type arrival struct {
	due    int64
	tenant int
}

// openSchedule is the arrival schedule, a pure function of the seed. The
// load runs for a warm-up span and then `windows` spans of windowNS each.
// The heavy tenant sends a burst every 1/6 s from a seeded phase. Each
// light tenant is a Poisson stream conditioned on its count: in every span
// it sends exactly rate × span requests at independent uniform times, which
// is what a Poisson process looks like given how many events fell in the
// span. Fixing the count keeps the offered load of every window, and so of
// every seed, the same; the gaps between requests stay random.
func openSchedule(seed int64, warmNS, windowNS int64, windows int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	total := warmNS + int64(windows)*windowNS
	period := int64(math.Round(float64(time.Second) / heavyBurstsSec))
	for t := rng.Int63n(period); t < total; t += period {
		for i := 0; i < heavyBurst; i++ {
			out = append(out, arrival{due: t, tenant: 0})
		}
	}
	spans := [][2]int64{{0, warmNS}}
	for w := 0; w < windows; w++ {
		spans = append(spans, [2]int64{warmNS + int64(w)*windowNS, warmNS + int64(w+1)*windowNS})
	}
	for lt := 1; lt <= lightTenants; lt++ {
		for _, sp := range spans {
			n := int(math.Round(lightRate * float64(sp[1]-sp[0]) / float64(time.Second)))
			for i := 0; i < n; i++ {
				out = append(out, arrival{due: sp[0] + rng.Int63n(sp[1]-sp[0]), tenant: lt})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}
