package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"distredge/internal/sim"
	"distredge/internal/splitter"
	"distredge/internal/strategy"
)

// concurrentPlanSHA256 is the SHA-256 of the saved plan below, as the
// serial per-boundary-set search produced it before the searches ran
// concurrently.
const concurrentPlanSHA256 = "075ad5ea3bcfaa4e3dc228ec9f9048ee2299d265cc2ff7f2d56826df7608f3d0"

// TestRequestPlanConcurrentSearchesDeterministic plans an IPS-objective
// fleet warm-started from a seed whose boundaries are neither LC-PSS's nor
// the stage layout's — three boundary sets, searched concurrently — and
// requires the saved plan to be the same bytes on one core and on four,
// equal to the serial planner's. Each boundary set's search must equal a
// serial search of that set, and a failing boundary set reports the
// lowest-index error.
func TestRequestPlanConcurrentSearchesDeterministic(t *testing.T) {
	env := objectiveCases(1)[0].env() // stable Group DB on VGG-16
	b := Tiny()
	b.Episodes = Full().Episodes // a budget that trains, so the agents race
	n := env.NumProviders()
	last := env.Model.NumSplittable()
	init := &strategy.Strategy{Boundaries: []int{0, last / 2, last}}
	for v := 0; v+1 < len(init.Boundaries); v++ {
		init.Splits = append(init.Splits, strategy.EqualCuts(strategy.VolumeHeight(env.Model, init.Boundaries, v), n))
	}
	lcp, err := LCPSS(env, b, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	stage := StageBoundaries(env.Model, n)
	if slices.Equal(lcp, init.Boundaries) || slices.Equal(lcp, stage) || slices.Equal(init.Boundaries, stage) {
		t.Fatalf("want three distinct boundary sets, have LC-PSS %v, seed %v, stage %v", lcp, init.Boundaries, stage)
	}

	plan := func(procs int) []byte {
		t.Helper()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		s, err := Request{Budget: b, Alpha: 0.75, Objective: sim.ThroughputObjective{Window: 4}}.Plan(env, init, nil)
		if err != nil {
			t.Fatal(err)
		}
		data, err := strategy.MarshalJSON(s, env.Model.Name)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	one, four := plan(1), plan(4)
	if !bytes.Equal(one, four) {
		t.Fatalf("plan differs between GOMAXPROCS 1 and 4:\n%s\n%s", one, four)
	}
	sum := sha256.Sum256(one)
	if got := hex.EncodeToString(sum[:]); got != concurrentPlanSHA256 {
		t.Errorf("plan SHA-256 %s, the serial planner's is %s:\n%s", got, concurrentPlanSHA256, one)
	}

	// Every concurrent search returns what a serial search of its set does,
	// not only the one whose candidate won.
	cfg := osdsConfig(b, n)
	cfg.Objective = sim.ThroughputObjective{Window: 4}
	sets := [][]int{lcp, init.Boundaries, stage}
	search := func(procs int, sets [][]int) ([]*splitter.Result, error) {
		return searchBoundarySets(env, sets, cfg, splitter.Search, procs)
	}
	results, err := search(4, sets)
	if err != nil {
		t.Fatal(err)
	}
	for i, set := range sets {
		want, err := splitter.Search(env, set, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(results[i], want) {
			t.Errorf("boundary set %d %v: concurrent search differs from the serial one", i, set)
		}
	}

	// When several boundary sets fail, the lowest-index set's error comes
	// back on any core count, even when a later set fails first.
	for _, procs := range []int{1, 4} {
		_, err := search(procs, [][]int{stage, {7}, {9}})
		if err == nil || !strings.Contains(err.Error(), "[7]") {
			t.Errorf("%d workers: error %v, want boundary set 1's (boundaries [7])", procs, err)
		}
	}
}
