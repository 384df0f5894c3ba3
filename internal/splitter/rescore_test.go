package splitter

import (
	"fmt"
	"math"
	"reflect"
	"runtime/debug"
	"testing"
)

// TestRescoreIsSearchPrefix: a re-score plays the first len(warmSchedule)
// episodes of the search with the same config, bit for bit, and returns
// the search's strategy whenever the search kept one of them. The cases
// are poolCases' seeded envs (4–6 providers, the latency and the IPS
// objective, with and without InitSplits), each at a budget whose schedule
// fits and at one that caps it.
func TestRescoreIsSearchPrefix(t *testing.T) {
	kept := 0
	for _, c := range poolCases() {
		for _, episodes := range []int{30, 7} {
			c.cfg.Episodes = episodes
			name := fmt.Sprintf("%s/%d episodes", c.name, episodes)
			want, err := Search(c.env, c.boundaries, c.cfg)
			if err != nil {
				t.Fatalf("%s: search: %v", name, err)
			}
			got, err := Rescore(c.env, c.boundaries, c.cfg)
			if err != nil {
				t.Fatalf("%s: re-score: %v", name, err)
			}
			k := len(warmSchedule(nil, c.cfg, episodes, false))
			if k == 0 || len(got.Episodes) != k {
				t.Fatalf("%s: re-score played %d episodes, want the schedule's %d", name, len(got.Episodes), k)
			}
			for i, s := range got.Episodes {
				if math.Float64bits(s) != math.Float64bits(want.Episodes[i]) {
					t.Errorf("%s: episode %d scores %.17g, the search's %.17g", name, i, s, want.Episodes[i])
				}
			}
			// The tracker keeps the first episode of the lowest score.
			at := -1
			for i, s := range want.Episodes {
				if s == want.BestLatency {
					at = i
					break
				}
			}
			if at < k {
				kept++
				if got.BestLatency != want.BestLatency || !reflect.DeepEqual(got.Strategy, want.Strategy) {
					t.Errorf("%s: the search kept warm episode %d, but the re-score returns another strategy (%.17g vs %.17g)", name, at, got.BestLatency, want.BestLatency)
				}
			}
		}
	}
	if kept == 0 {
		t.Error("no search kept a warm-start episode: the strategy check never ran")
	}
}

// TestRescoreAllocs: a pooled re-score allocates a small fixed number of
// objects — its Result, the copy of its history and the copy of its best
// strategy, as TestSearchAllocs counts for a search — and builds no agent:
// with a hidden shape no search has used before on every call, the count
// stays the same.
func TestRescoreAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops a share of sync.Pool Puts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const want = 6
	cases := poolCases()
	for _, c := range []poolCase{cases[0], cases[2]} { // the latency and the IPS objective
		rescore := func() {
			if _, err := Rescore(c.env, c.boundaries, c.cfg); err != nil {
				t.Fatal(err)
			}
		}
		rescore()
		pooled := testing.AllocsPerRun(3, rescore)
		hidden := []int{100, 100}
		c.cfg.Hidden = hidden
		newShape := func() {
			hidden[0]++
			hidden[1]++
			rescore()
		}
		fresh := testing.AllocsPerRun(3, newShape)
		if pooled != want || fresh != want {
			t.Errorf("%s: %v allocations per re-score, %v with a new hidden shape each time, want %d", c.name, pooled, fresh, want)
		}
	}
}
