package splitter

import (
	"fmt"
	"math"
	"reflect"
	"runtime/debug"
	"testing"

	"distredge/internal/cnn"
	"distredge/internal/device"
	"distredge/internal/network"
	"distredge/internal/partition"
	"distredge/internal/sim"
	"distredge/internal/strategy"
)

// TestDescendIsSearchPrefix: a descent plays the first len(warmSchedule)
// episodes of the search with the same config, bit for bit, before it
// moves a cut. The cases are poolCases' seeded envs (4–6 providers, the
// latency and the IPS objective, with and without InitSplits), each at a
// budget whose schedule fits and at one that caps it.
func TestDescendIsSearchPrefix(t *testing.T) {
	for _, c := range poolCases() {
		for _, episodes := range []int{30, 7} {
			c.cfg.Episodes = episodes
			name := fmt.Sprintf("%s/%d episodes", c.name, episodes)
			want, err := Search(c.env, c.boundaries, c.cfg)
			if err != nil {
				t.Fatalf("%s: search: %v", name, err)
			}
			got, err := Descend(c.env, c.boundaries, c.cfg)
			if err != nil {
				t.Fatalf("%s: descent: %v", name, err)
			}
			k := len(warmSchedule(nil, c.cfg, episodes, false))
			if k == 0 || len(got.Episodes) != k {
				t.Fatalf("%s: descent played %d episodes, want the schedule's %d", name, len(got.Episodes), k)
			}
			for i, s := range got.Episodes {
				if math.Float64bits(s) != math.Float64bits(want.Episodes[i]) {
					t.Errorf("%s: episode %d scores %.17g, the search's %.17g", name, i, s, want.Episodes[i])
				}
			}
		}
	}
}

// scheduleBest plays the case's warm-start schedule without an agent and
// returns a copy of the best strategy it kept: the descent's start.
func scheduleBest(t *testing.T, c poolCase) *strategy.Strategy {
	t.Helper()
	tr, err := newTrainer(c.env, c.boundaries, c.cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	tr.train(tr.cfg.Episodes, false)
	start, _ := tr.Best()
	tr.release()
	if start == nil {
		t.Fatalf("%s: the schedule kept no strategy", c.name)
	}
	return start
}

// TestDescendReachesLocalOptimum: on a budget that does not bind, a
// descent ends where no single-cut ±1 move ranks strictly better, ranks
// no worse than the schedule's best it started from, and reports its own
// rank. It must have moved somewhere on these cases, or the test shows
// nothing.
func TestDescendReachesLocalOptimum(t *testing.T) {
	moved := 0
	for _, c := range poolCases() {
		c.cfg.Episodes = 400
		start := scheduleBest(t, c)
		res, err := Descend(c.env, c.boundaries, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rank := func(s *strategy.Strategy) float64 {
			score, err := sim.Rank(c.env, c.cfg.Objective, s)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			return score
		}
		got := rank(res.Strategy)
		if got != res.BestLatency {
			t.Errorf("%s: reports %.17g, ranks %.17g", c.name, res.BestLatency, got)
		}
		switch from := rank(start); {
		case got > from:
			t.Errorf("%s: ends at %.17g, worse than its start's %.17g", c.name, got, from)
		case got < from:
			moved++
		}
		s := res.Strategy.Clone()
		for v, cuts := range s.Splits {
			h := strategy.VolumeHeight(c.env.Model, c.boundaries, v)
			for ci, old := range cuts {
				for _, d := range []int{-1, 1} {
					cuts[ci] = old + d
					if cuts[ci] >= 0 && cuts[ci] <= h && (ci == 0 || cuts[ci-1] <= cuts[ci]) && (ci+1 == len(cuts) || cuts[ci] <= cuts[ci+1]) {
						if score := rank(s); score < got {
							t.Errorf("%s: moving cut %d of volume %d by %+d ranks %.17g, better than the descent's %.17g", c.name, ci, v, d, score, got)
						}
					}
					cuts[ci] = old
				}
			}
		}
	}
	if moved == 0 {
		t.Error("no descent improved on its start: the cases show nothing")
	}
}

// TestDescendAllocs: a pooled descent allocates a small fixed number of
// objects — its Result, the copies of its history and best strategy, as
// TestSearchAllocs counts for a search — whatever its number of moves,
// and builds no agent: with a hidden shape no search has used before on
// every call, the count stays the same. The budgets range from one that
// cuts the descent short (10 episodes) to one that lets it reach its local
// optimum (400).
func TestDescendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops a share of sync.Pool Puts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const want = 6
	cases := poolCases()
	for _, c := range []poolCase{cases[0], cases[2]} { // the latency and the IPS objective
		for _, episodes := range []int{10, 400} {
			c.cfg.Episodes = episodes
			descend := func() {
				if _, err := Descend(c.env, c.boundaries, c.cfg); err != nil {
					t.Fatal(err)
				}
			}
			descend()
			pooled := testing.AllocsPerRun(3, descend)
			hidden := []int{100, 100}
			c.cfg.Hidden = hidden
			newShape := func() {
				hidden[0]++
				hidden[1]++
				descend()
			}
			fresh := testing.AllocsPerRun(3, newShape)
			if pooled != want || fresh != want {
				t.Errorf("%s/%d episodes: %v allocations per descent, %v with a new hidden shape each time, want %d", c.name, episodes, pooled, fresh, want)
			}
		}
	}
}

// referenceDescend is descend as it was before it skipped a cut whose
// neighbourhood no kept move had changed: every in-range candidate of
// every cut of every sweep is ranked. It reports whether the budget ran
// out before a local optimum.
func referenceDescend(t *Trainer) (bound bool) {
	s := t.best
	if s == nil {
		return false
	}
	cur, err := sim.Rank(t.env, t.obj, s)
	if err != nil {
		return false
	}
	t.bestT = cur
	left := t.cfg.Episodes*(len(t.boundaries)-1) - 1
	for _, step := range descentSteps {
		for improved := true; improved; {
			improved = false
			for v, cuts := range s.Splits {
				h := strategy.VolumeHeight(t.env.Model, t.boundaries, v)
				for ci, old := range cuts {
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
							return true
						}
						left--
						cuts[ci] = c
						if score, err := sim.Rank(t.env, t.obj, s); err == nil && score < cur {
							cur, t.bestT, improved = score, score, true
							break
						}
						cuts[ci] = old
					}
				}
			}
		}
	}
	return false
}

// countingObjective counts the Score calls of the objective it wraps: a
// descent's rankings (the wrapped ThroughputObjective's EpisodeScore calls
// its own Score, which is not counted).
type countingObjective struct {
	sim.Objective
	scores *int
}

func (o countingObjective) Score(e *sim.Env, s *strategy.Strategy, at float64) (float64, error) {
	*o.scores++
	return o.Objective.Score(e, s, at)
}

// TestDescendSkipsRankedCuts: a descent that does not rank again the cuts
// whose neighbourhood no kept move has changed returns the strategy bytes
// and rank of referenceDescend, which ranks every candidate, on
// poolCases' seeded envs under the latency and the IPS objective, at
// budgets that bind (2 and 3 episodes) and at one that does not; with one
// episode there is no schedule, so neither finds a strategy. Under the IPS
// objective, counted through countingObjective, it ranks strictly fewer
// candidates over the cases and never more in one.
func TestDescendSkipsRankedCuts(t *testing.T) {
	bound, fewer := 0, 0
	for _, c := range poolCases() {
		for _, episodes := range []int{1, 2, 3, 30} {
			c := c // the objective is wrapped below, once per budget
			c.cfg.Episodes = episodes
			name := fmt.Sprintf("%s/%d episodes", c.name, episodes)
			var refScores, gotScores int
			if !sim.IsLatencyObjective(c.cfg.Objective) {
				c.cfg.Objective = countingObjective{c.cfg.Objective, &refScores}
			}
			tr, err := newTrainer(c.env, c.boundaries, c.cfg, false)
			if err != nil {
				t.Fatal(err)
			}
			tr.train(tr.cfg.Episodes, false)
			if referenceDescend(tr) {
				bound++
			}
			want := tr.result()
			tr.release()

			if co, ok := c.cfg.Objective.(countingObjective); ok {
				co.scores = &gotScores
				c.cfg.Objective = co
			}
			got, err := Descend(c.env, c.boundaries, c.cfg)
			if want.Strategy == nil {
				if err == nil {
					t.Errorf("%s: the reference finds no strategy, the descent finds %v", name, got.Strategy.Splits)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(got.Strategy, want.Strategy) || math.Float64bits(got.BestLatency) != math.Float64bits(want.BestLatency) {
				t.Errorf("%s: descends to %v (%.17g), the reference to %v (%.17g)",
					name, got.Strategy.Splits, got.BestLatency, want.Strategy.Splits, want.BestLatency)
			}
			if gotScores > refScores {
				t.Errorf("%s: %d rankings, the reference's %d", name, gotScores, refScores)
			}
			fewer += refScores - gotScores
		}
	}
	if bound == 0 {
		t.Error("no budget bound a reference descent: the cases show nothing of the budget")
	}
	if fewer <= 0 {
		t.Error("the descent ranked no fewer candidates than the reference under the IPS objective")
	}
}

// BenchmarkDescend times one cold quick-budget descent per (model,
// objective) key a plan-mix pass plans: the key's fleet (4–6 of xavier,
// tx2, nano and pi3 at 100 Mbps) over its LC-PSS boundaries, the warm-start
// schedule and then the cut-point descent, as Descend runs them. It
// reports the descent's rankings per op (rankings/op), counted by swapping
// countingObjective in after the schedule, so the schedule plays as under
// the plain objective.
func BenchmarkDescend(b *testing.B) {
	fleets := map[int][]device.Type{
		4: {device.Xavier, device.TX2, device.Nano, device.Pi3},
		5: {device.Xavier, device.TX2, device.TX2, device.Nano, device.Pi3},
		6: {device.Xavier, device.Xavier, device.TX2, device.Nano, device.Nano, device.Pi3},
	}
	for mi, m := range []*cnn.Model{cnn.VGG16(), cnn.ResNet50(), cnn.YOLOv2(), cnn.InceptionV3()} {
		for oi, obj := range []sim.Objective{nil, sim.ThroughputObjective{Window: 4}} {
			types := fleets[4+(mi+oi)%3]
			n := len(types)
			bws := make([]float64, n)
			for i := range bws {
				bws[i] = 100
			}
			env := &sim.Env{Model: m, Devices: device.AsModels(device.Fleet(types...)), Net: network.NewStable(bws, 60, 1)}
			boundaries, err := partition.Search(m, partition.Config{Alpha: 0.75, NumRandomSplits: 50, Providers: n, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			cfg := Config{Episodes: 100, Hidden: []int{32, 32}, Batch: 32, SigmaSq: 0.1, Seed: 1, WarmStart: true, Objective: obj}
			b.Run(fmt.Sprintf("%s/%s", m.Name, sim.DefaultObjective(obj).Name()), func(b *testing.B) {
				rankings := 0
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					tr, err := newTrainer(env, boundaries, cfg, false)
					if err != nil {
						b.Fatal(err)
					}
					tr.train(tr.cfg.Episodes, false)
					tr.obj = countingObjective{tr.obj, &rankings}
					tr.descend()
					tr.release()
				}
				b.ReportMetric(float64(rankings)/float64(b.N), "rankings/op")
			})
		}
	}
}
