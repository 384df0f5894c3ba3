package splitter

import (
	"fmt"
	"math"
	"runtime/debug"
	"testing"

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
