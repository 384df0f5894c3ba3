package experiments

import (
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"distredge/internal/runtime"
	"distredge/internal/sim"
	"distredge/internal/strategy"
	"distredge/internal/transport"
)

func findObjectiveRow(rows []ObjectiveRow, c, planner string, window int) (ObjectiveRow, bool) {
	for _, r := range rows {
		if r.Case == c && r.Planner == planner && r.Window == window {
			return r, true
		}
	}
	return ObjectiveRow{}, false
}

// TestFigObjectiveThroughputPlannerWins is the sim half of the acceptance
// criterion: on both the stable and the dynamic case the IPS planner's
// strategy must sustain strictly more SteadyIPS than the latency
// planner's at window 4, while the latency planner keeps its win at the
// paper's sequential window 1 on the stable case (where the two planners
// disagree structurally: balanced split vs stage pipeline).
func TestFigObjectiveThroughputPlannerWins(t *testing.T) {
	rows, err := FigObjective(Tiny(), []int{1, 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]bool{}
	for _, r := range rows {
		cases[r.Case] = true
	}
	if len(cases) < 2 {
		t.Fatalf("sweep covers %d case(s), want stable + dynamic", len(cases))
	}
	for c := range cases {
		lat4, ok1 := findObjectiveRow(rows, c, PlannerLatency, 4)
		ips4, ok2 := findObjectiveRow(rows, c, PlannerIPS, 4)
		if !ok1 || !ok2 {
			t.Fatalf("case %s missing window-4 rows", c)
		}
		t.Logf("%s window 4: latency-planned steady %.2f ips, ips-planned steady %.2f ips (%.2fx)",
			c, lat4.SteadyIPS, ips4.SteadyIPS, ips4.SteadyIPS/lat4.SteadyIPS)
		if ips4.SteadyIPS <= lat4.SteadyIPS {
			t.Errorf("case %s: ips planner does not win at window 4: %.3f <= %.3f",
				c, ips4.SteadyIPS, lat4.SteadyIPS)
		}
	}
	lat1, _ := findObjectiveRow(rows, "DB-200Mbps", PlannerLatency, 1)
	ips1, _ := findObjectiveRow(rows, "DB-200Mbps", PlannerIPS, 1)
	if lat1.IPS <= ips1.IPS {
		t.Errorf("latency planner must win the sequential protocol: %.3f <= %.3f", lat1.IPS, ips1.IPS)
	}
}

// TestFigObjectiveParallelDeterministic extends the harness determinism
// guarantee to the objective sweep: rows are byte-identical for any
// worker count.
func TestFigObjectiveParallelDeterministic(t *testing.T) {
	serial := Tiny()
	parallel := Tiny()
	parallel.Parallel = 4
	a, err := FigObjective(serial, []int{1, 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FigObjective(parallel, []int{1, 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d != %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs between worker counts:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

// TestObjectiveDifferentialSimVsRuntime is the end-to-end half of the
// acceptance criterion: the simulator predicts that the throughput
// planner's strategy beats the latency planner's on measured IPS at
// window 4 while losing the sequential window-1 protocol, and the real
// runtime — deployed over the trace-shaped transport of PR 4, so the wire
// charges the same WiFi conditions the planners optimised against — must
// reproduce both orderings with a real margin, and at window 1, where
// nothing overlaps and the sim models every term, the sim's magnitudes too.
func TestObjectiveDifferentialSimVsRuntime(t *testing.T) {
	env := objectiveCases(1)[0].env() // stable Group DB on VGG-16
	b := Tiny()
	latPlan, err := Request{Budget: b, Alpha: 0.75}.Plan(env, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ipsPlan, err := Request{Budget: b, Alpha: 0.75, Objective: sim.ThroughputObjective{Window: 4}}.Plan(env, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Sim predictions.
	simIPS := func(s *strategy.Strategy, w int) float64 {
		t.Helper()
		res, err := env.Serve(s, pipelined(40, w))
		if err != nil {
			t.Fatal(err)
		}
		return res.SteadyIPS
	}
	if got, want := simIPS(ipsPlan, 4), simIPS(latPlan, 4); got <= want {
		t.Fatalf("sim must predict the ips plan ahead at window 4: %.3f <= %.3f", got, want)
	}
	if got, want := simIPS(latPlan, 1), simIPS(ipsPlan, 1); got <= want {
		t.Fatalf("sim must predict the latency plan ahead at window 1: %.3f <= %.3f", got, want)
	}

	// Runtime measurements over the shaped wire. The time scale keeps
	// per-image wall cost well above the runtime's fixed per-chunk
	// overhead (at 0.1 the stage plan's ~34ms model image shrinks to
	// ~3ms of wall, and scheduling noise compresses the measured ratios).
	const timeScale, bytesScale = 0.3, 0.001
	// Steady-state throughput of a closed loop of w clients, the quantity the
	// sim's SteadyIPS predicts: w over the median time the cluster takes to
	// complete w more images. The median, not images over wall time: this VM
	// stalls for 30-250 ms in one run of eight, which is 5-40 % of a cell's
	// wall time but only the w gaps that span it — and the pipeline's fill
	// and drain, a third of a 12-image run, fall out the same way.
	run := func(s *strategy.Strategy, w, images int) float64 {
		t.Helper()
		opts := runtime.Options{
			TimeScale:         timeScale,
			BytesScale:        bytesScale,
			Batch:             1,  // the sim predictions compared against are unbatched
			HeartbeatInterval: -1, // charged links must not starve liveness
		}
		opts.Transport = transport.NewShaped(transport.NewInproc(), env.Net, timeScale, bytesScale)
		cl, err := runtime.Deploy(env, s, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		done := make([]time.Duration, images)
		var wg sync.WaitGroup
		//distlint:allow determinism -- the measurement itself: the real runtime's wall-clock throughput against the sim's prediction
		start := time.Now()
		for c := 0; c < w; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := c; i < images; i += w {
					if err := cl.Submit(); err != nil {
						t.Error(err)
						return
					}
					//distlint:allow determinism -- completion stamp of the wall-clock measurement above
					done[i] = time.Since(start)
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		slices.Sort(done)
		gaps := make([]time.Duration, 0, images)
		for i := 0; i+w < images; i++ {
			gaps = append(gaps, done[i+w]-done[i])
		}
		slices.Sort(gaps)
		return float64(w) / gaps[len(gaps)/2].Seconds()
	}
	latW1, latW4 := run(latPlan, 1, 12), run(latPlan, 4, 40)
	ipsW1, ipsW4 := run(ipsPlan, 1, 12), run(ipsPlan, 4, 40)
	t.Logf("sim IPS in wall time: latency plan w1 %.2f w4 %.2f; ips plan w1 %.2f w4 %.2f",
		simIPS(latPlan, 1)/timeScale, simIPS(latPlan, 4)/timeScale, simIPS(ipsPlan, 1)/timeScale, simIPS(ipsPlan, 4)/timeScale)
	t.Logf("runtime wall IPS: latency plan w1 %.2f w4 %.2f; ips plan w1 %.2f w4 %.2f",
		latW1, latW4, ipsW1, ipsW4)
	// The sim predicts ~1.7x (97.9 vs 58.4). The ips plan holds its figure
	// (94.5-97.7 measured); the runtime's gap-filling step queue lets the
	// latency plan pipeline better than the in-order model (its many small
	// steps slot into gaps the sim leaves idle: 70.5-71.4), so the measured
	// margin is 1.33-1.38x, and 1.14x in the one run in twenty that meets a
	// slow half second of the VM — still a real ordering.
	if ipsW4 <= 1.1*latW4 {
		t.Errorf("runtime does not reproduce the window-4 ordering: ips plan %.2f vs latency plan %.2f", ipsW4, latW4)
	}
	if latW1 <= 1.15*ipsW1 {
		t.Errorf("runtime does not reproduce the window-1 ordering: latency plan %.2f vs ips plan %.2f", latW1, ipsW1)
	}
	// Window 1: the lag-compensated emulator leaves only one timer
	// overshoot and the hand-offs per image outside the sim's account
	// (measured 45.0-46.0 vs 45.5 and 24.7-25.3 vs 24.7; 36.4 and 22.9 while
	// every stage's overshoot still accumulated).
	for _, c := range []struct {
		name string
		plan *strategy.Strategy
		got  float64
	}{{"latency", latPlan, latW1}, {"ips", ipsPlan, ipsW1}} {
		if want := simIPS(c.plan, 1) / timeScale; math.Abs(c.got-want) > 0.05*want {
			t.Errorf("%s plan at window 1: runtime %.2f img/s is not within 5%% of the sim's %.2f", c.name, c.got, want)
		}
	}
}
