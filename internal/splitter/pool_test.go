package splitter

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"distredge/internal/cnn"
	"distredge/internal/device"
	"distredge/internal/network"
	"distredge/internal/rl"
	"distredge/internal/sim"
	"distredge/internal/strategy"
)

// poolCase is one search shape of the pooling tests.
type poolCase struct {
	name       string
	env        *sim.Env
	boundaries []int
	cfg        Config
}

// poolCases mixes every dimension a pooled agent or trainer is sized or
// seeded by: 4, 5 and 6 providers, the tiny and the quick budget's hidden
// sizes, the latency and the IPS objective, with and without InitSplits.
func poolCases() []poolCase {
	fleets := [][]device.Type{
		{device.Xavier, device.Nano, device.TX2, device.Nano},
		{device.Xavier, device.Nano, device.TX2, device.Nano, device.Xavier},
		{device.Xavier, device.Nano, device.TX2, device.Nano, device.Xavier, device.TX2},
	}
	var cases []poolCase
	for i := 0; i < 8; i++ {
		types := fleets[i%3]
		n := len(types)
		bws := make([]float64, n)
		for j := range bws {
			bws[j] = 150 + 50*float64(j%3)
		}
		env := &sim.Env{Model: cnn.VGG16(), Devices: device.AsModels(device.Fleet(types...)), Net: network.NewStable(bws, 10, int64(i))}
		c := poolCase{env: env, boundaries: strategy.PoolBoundaries(env.Model)}
		c.cfg = Config{Episodes: 30, Hidden: []int{16, 16}, Batch: 16, Seed: int64(i + 1), WarmStart: true}
		budget, objective, seeded := "tiny", "latency", ""
		if i%2 == 1 {
			c.cfg.Hidden, c.cfg.Batch, budget = []int{32, 32}, 32, "quick"
		}
		if i/2%2 == 1 {
			c.cfg.Objective, objective = sim.ThroughputObjective{Window: 4}, "ips"
		}
		if i/4 == 1 {
			for v := 0; v+1 < len(c.boundaries); v++ {
				c.cfg.InitSplits = append(c.cfg.InitSplits, strategy.EqualCuts(strategy.VolumeHeight(env.Model, c.boundaries, v), n))
			}
			seeded = "/init"
		}
		c.name = fmt.Sprintf("%dp/%s/%s%s", n, budget, objective, seeded)
		cases = append(cases, c)
	}
	return cases
}

// searchTraced runs a search the way Search does — NewTrainer, Run,
// release — and returns the result with the agent and trainer it used;
// poisoned, it writes NaN into every buffer the trainer and its agent own
// (see poison) before releasing them.
func searchTraced(t *testing.T, c poolCase, poisoned bool) (*Result, *rl.Agent, *Trainer) {
	t.Helper()
	tr, err := NewTrainer(c.env, c.boundaries, c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	agent := tr.agent
	res := tr.Run()
	if res.Strategy == nil {
		t.Fatalf("%s: no strategy", c.name)
	}
	if poisoned {
		poison(reflect.ValueOf(tr), map[uintptr]bool{})
	}
	tr.release()
	return res, agent, tr
}

// freshSearch runs the case on a never-pooled agent and trainer: two
// collections empty every sync.Pool, primary and victim cache.
func freshSearch(t *testing.T, c poolCase) *Result {
	t.Helper()
	runtime.GC()
	runtime.GC()
	res, _, _ := searchTraced(t, c, false)
	return res
}

var envType = reflect.TypeOf((*sim.Env)(nil))

// poison writes NaN into every float64 (and true into every bool)
// reachable from v through pointers, structs, arrays and slices — slices
// up to their capacity, so the replay rows past its length and any spare
// workspace storage are hit too. It reaches unexported fields, and stops at
// the shared environment, interfaces, maps and functions: what a trainer
// and its agent own, not what they borrow.
func poison(v reflect.Value, seen map[uintptr]bool) {
	switch v.Kind() {
	case reflect.Float64:
		v.SetFloat(math.NaN())
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Pointer:
		if v.IsNil() || v.Type() == envType || seen[v.Pointer()] {
			return
		}
		seen[v.Pointer()] = true
		poison(v.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			poison(reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem(), seen)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			poison(v.Index(i), seen)
		}
	case reflect.Slice:
		s := v.Slice(0, v.Cap())
		for i := 0; i < s.Len(); i++ {
			poison(s.Index(i), seen)
		}
	}
}

// TestSearchPooledMatchesFresh: a search on a pooled agent and trainer
// returns exactly what the same search on never-pooled ones does, when
// searches of different shapes interleave, and when the released agent and
// trainer were poisoned with NaN in every buffer they own — so
// re-initialisation rewrites every number a search reads.
func TestSearchPooledMatchesFresh(t *testing.T) {
	cases := poolCases()
	want := make([]*Result, len(cases))
	for i, c := range cases {
		want[i] = freshSearch(t, c)
	}
	released := map[*rl.Agent]bool{}
	reused := 0
	for round := 0; round < 2; round++ {
		for k := range cases {
			i := (k*3 + round) % len(cases) // a new shape almost every search
			got, agent, _ := searchTraced(t, cases[i], false)
			if released[agent] {
				reused++
			}
			released[agent] = true
			if !reflect.DeepEqual(got, want[i]) {
				t.Errorf("%s, round %d: pooled search differs from the fresh one:\n%+v\n%+v", cases[i].name, round, got, want[i])
			}
		}
	}
	if reused == 0 {
		t.Errorf("no search of %d drew a released agent", 2*len(cases))
	}

	for i, c := range cases {
		// A pool hit is not certain (a goroutine moved to another P finds
		// the released agent in that P's private slot), so retry until the
		// next search draws both the poisoned agent and the poisoned
		// trainer.
		hit := false
		for attempt := 0; attempt < 20 && !hit; attempt++ {
			_, badAgent, badTrainer := searchTraced(t, c, true)
			tr, err := NewTrainer(c.env, c.boundaries, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			hit = tr.agent == badAgent && tr == badTrainer
			got := tr.Run()
			tr.release()
			if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("%s: search after a poisoned release differs from the fresh one:\n%+v\n%+v", c.name, got, want[i])
			}
		}
		if !hit {
			t.Errorf("%s: no search drew the poisoned agent and trainer in 20 attempts", c.name)
		}
	}
}

// TestSearchAllocs: once a shape's first search has filled the pools (and
// the environment's caches), a search of that shape allocates a small,
// fixed number of objects — its Result, the copy of its history and the
// copy of its best strategy, and what the objective's scoring allocates —
// and the same number at 20 and at 80 episodes: nothing per episode, per
// new best or per DDPG update. BenchmarkOSDSSearch (repo root) reads the
// same count with bytes per search.
func TestSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops a share of sync.Pool Puts")
	}
	// A collection mid-measurement would empty the pools and count a fresh
	// agent's allocations.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const limit = 10
	cases := poolCases()
	for _, c := range []poolCase{cases[0], cases[2]} { // the latency and the IPS objective
		var counts []float64
		for _, episodes := range []int{20, 80} {
			c.cfg.Episodes = episodes
			search := func() {
				if _, err := Search(c.env, c.boundaries, c.cfg); err != nil {
					t.Fatal(err)
				}
			}
			search()
			counts = append(counts, testing.AllocsPerRun(3, search))
		}
		if counts[0] > limit || counts[0] != counts[1] {
			t.Errorf("%s: %v allocations per search at 20 and 80 episodes, want one count <= %d", c.name, counts, limit)
		}
		t.Logf("%s: %v allocations per search", c.name, counts[0])
	}
}
