package plancache

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"distredge/internal/cnn"
	"distredge/internal/device"
	"distredge/internal/sim"
	"distredge/internal/splitter"
	"distredge/internal/strategy"
)

// balancedPlanner is a cheap deterministic Planner for service tests: the
// profile-balanced single-volume layout, ignoring init. calls counts real
// plannings.
func balancedPlanner(calls *atomic.Int64) Planner {
	return func(env *sim.Env, obj sim.Objective, init *strategy.Strategy) (*strategy.Strategy, error) {
		if calls != nil {
			calls.Add(1)
		}
		alive := make([]bool, env.NumProviders())
		for i := range alive {
			alive[i] = true
		}
		return splitter.BalancedSubset(env, strategy.SingleVolume(env.Model), alive)
	}
}

func TestServiceRequiresPlanner(t *testing.T) {
	if _, err := NewService(Config{}); err == nil {
		t.Fatal("NewService accepted a nil Planner")
	}
}

// TestServiceExactHitDeterminism is the determinism satellite: planning the
// same fleet signature twice returns the first plan without re-planning, and
// the cached strategy is bit-identical to an independent recomputation with
// the same seed inputs.
func TestServiceExactHitDeterminism(t *testing.T) {
	var calls atomic.Int64
	svc, err := NewService(Config{Planner: balancedPlanner(&calls)})
	if err != nil {
		t.Fatal(err)
	}
	env := sigEnv(cnn.VGG16(), 3, []float64{100, 200, 100}, device.Xavier, device.Nano, device.TX2)
	first, err := svc.Plan(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.Outcome != OutcomeCold {
		t.Fatalf("first planning outcome %q, want cold", first.Outcome)
	}
	// Same fleet, rebuilt from scratch (fresh traces, same nominal regime).
	again := sigEnv(cnn.VGG16(), 3, []float64{100, 200, 100}, device.Xavier, device.Nano, device.TX2)
	second, err := svc.Plan(again, nil)
	if err != nil {
		t.Fatal(err)
	}
	if second.Outcome != OutcomeHit {
		t.Fatalf("second planning outcome %q, want hit", second.Outcome)
	}
	if calls.Load() != 1 {
		t.Fatalf("planner ran %d times, want 1", calls.Load())
	}
	if second.Strategy != first.Strategy {
		t.Fatal("exact hit returned a different pointer than the cached plan")
	}
	// Independent recomputation on a fresh service must be bit-identical.
	fresh, err := NewService(Config{Planner: balancedPlanner(nil)})
	if err != nil {
		t.Fatal(err)
	}
	recomputed, err := fresh.Plan(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recomputed.Strategy, first.Strategy) {
		t.Fatalf("recomputed strategy differs:\n%+v\n%+v", recomputed.Strategy, first.Strategy)
	}
	if recomputed.Score != first.Score {
		t.Fatalf("recomputed score %v != cached %v", recomputed.Score, first.Score)
	}
	st := svc.Cache().Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v, want exactly 1 hit and 1 miss", st)
	}
}

func TestServiceWarmStart(t *testing.T) {
	var inits []*strategy.Strategy
	var mu sync.Mutex
	planner := func(env *sim.Env, obj sim.Objective, init *strategy.Strategy) (*strategy.Strategy, error) {
		mu.Lock()
		inits = append(inits, init)
		mu.Unlock()
		return balancedPlanner(nil)(env, obj, init)
	}
	svc, err := NewService(Config{Planner: planner})
	if err != nil {
		t.Fatal(err)
	}
	cold := sigEnv(cnn.VGG16(), 3, []float64{100, 100}, device.Xavier, device.Nano)
	coldRes, err := svc.Plan(cold, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Same devices one bandwidth tier up: a near miss, not an exact hit.
	near := sigEnv(cnn.VGG16(), 3, []float64{150, 150}, device.Xavier, device.Nano)
	warmRes, err := svc.Plan(near, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warmRes.Outcome != OutcomeWarm {
		t.Fatalf("near-miss outcome %q, want warm", warmRes.Outcome)
	}
	if want := SignatureOf(cold, nil).Key(); warmRes.SeedKey != want {
		t.Fatalf("SeedKey = %q, want donor %q", warmRes.SeedKey, want)
	}
	if len(inits) != 2 || inits[0] != nil || inits[1] == nil {
		t.Fatalf("planner inits = %v, want [nil, non-nil]", inits)
	}
	if !reflect.DeepEqual(inits[1], coldRes.Strategy) {
		t.Fatal("warm start was not seeded with the donor strategy")
	}
	st := svc.Cache().Stats()
	if st.WarmHits != 1 || st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("stats %+v, want 2 misses of which 1 warm", st)
	}
}

// TestServiceWarmNeverWorseThanSeed exercises the quality guarantee with a
// deliberately bad planner: when the warm-started search loses to its own
// seed, the seed is the plan.
func TestServiceWarmNeverWorseThanSeed(t *testing.T) {
	bad := func(env *sim.Env, obj sim.Objective, init *strategy.Strategy) (*strategy.Strategy, error) {
		if init == nil {
			return balancedPlanner(nil)(env, obj, init)
		}
		// Warm planning "fails": everything on the slowest provider.
		b := strategy.SingleVolume(env.Model)
		h := strategy.VolumeHeight(env.Model, b, 0)
		return &strategy.Strategy{
			Boundaries: b,
			Splits:     [][]int{strategy.AllOnProvider(h, env.NumProviders(), env.NumProviders()-1)},
		}, nil
	}
	svc, err := NewService(Config{Planner: bad})
	if err != nil {
		t.Fatal(err)
	}
	cold := sigEnv(cnn.VGG16(), 3, []float64{100, 100}, device.Xavier, device.Nano)
	coldRes, err := svc.Plan(cold, nil)
	if err != nil {
		t.Fatal(err)
	}
	near := sigEnv(cnn.VGG16(), 3, []float64{150, 150}, device.Xavier, device.Nano)
	// Equal provider counts: the donor strategy transfers index-for-index,
	// so the seed the service will use is exactly the cold strategy.
	seedScore, err := sim.DefaultObjective(nil).Score(near, coldRes.Strategy, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Plan(near, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeWarm {
		t.Fatalf("outcome %q, want warm", res.Outcome)
	}
	if res.Score > seedScore {
		t.Fatalf("warm plan scores %v, worse than its seed %v", res.Score, seedScore)
	}
	// The bad search result lost to the seed, so the seed must be the plan.
	if !reflect.DeepEqual(res.Strategy, coldRes.Strategy) {
		t.Fatal("losing warm search was not replaced by its seed")
	}
}

// TestServiceSingleFlight: concurrent Plan calls for the identical signature
// share one planning, also when they come through two services over one
// cache (the in-flight table lives in the cache). The duplicate is released
// only once the cache has counted its miss, which it does under the lock
// it then finds the first flight's entry under: it must wait, not plan.
func TestServiceSingleFlight(t *testing.T) {
	var calls atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	planner := func(env *sim.Env, obj sim.Objective, init *strategy.Strategy) (*strategy.Strategy, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-release
		}
		return balancedPlanner(nil)(env, obj, init)
	}
	cache := New(0)
	var svcs [2]*Service
	for i := range svcs {
		svc, err := NewService(Config{Cache: cache, Planner: planner, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		svcs[i] = svc
	}
	results := make([]Result, 2)
	var wg sync.WaitGroup
	plan := func(i int, env *sim.Env) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := svcs[i].Plan(env, nil)
			if err != nil {
				t.Error(err)
			}
			results[i] = r
		}()
	}
	plan(0, sigEnv(cnn.VGG16(), 3, []float64{100, 100}, device.Xavier, device.Nano))
	<-started // the first flight is inside the planner
	plan(1, sigEnv(cnn.VGG16(), 3, []float64{100, 100}, device.Xavier, device.Nano))
	for cache.Stats().Misses < 2 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("planner ran %d times for one signature, want 1", calls.Load())
	}
	if results[0].Strategy != results[1].Strategy {
		t.Fatal("single-flight duplicate got a different strategy pointer")
	}
	if st := cache.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("stats %+v, want 2 misses and no hit", st)
	}
}

// TestServiceConcurrentDistinct: distinct signatures plan concurrently when
// workers allow — two plannings must be in flight at the same time.
func TestServiceConcurrentDistinct(t *testing.T) {
	var inFlight, peak atomic.Int64
	var enterBoth sync.WaitGroup
	enterBoth.Add(2)
	planner := func(env *sim.Env, obj sim.Objective, init *strategy.Strategy) (*strategy.Strategy, error) {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		enterBoth.Done()
		enterBoth.Wait() // barrier: both plannings must be inside at once
		return balancedPlanner(nil)(env, obj, init)
	}
	svc, err := NewService(Config{Planner: planner, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	envs := []*sim.Env{
		sigEnv(cnn.VGG16(), 3, []float64{100, 100}, device.Xavier, device.Nano),
		sigEnv(cnn.VGG16(), 3, []float64{400, 400}, device.Xavier, device.Nano),
	}
	var wg sync.WaitGroup
	for _, env := range envs {
		wg.Add(1)
		go func(env *sim.Env) {
			defer wg.Done()
			if _, err := svc.Plan(env, nil); err != nil {
				t.Error(err)
			}
		}(env)
	}
	wg.Wait()
	if peak.Load() != 2 {
		t.Fatalf("peak concurrent plannings %d, want 2", peak.Load())
	}
}
