package plancache

import (
	"reflect"
	"testing"

	"distredge/internal/cnn"
	"distredge/internal/device"
	"distredge/internal/sim"
	"distredge/internal/splitter"
	"distredge/internal/strategy"
)

// countReplans wraps a ReplanFunc, counting invocations.
func countReplans(n *int, inner sim.ReplanFunc) sim.ReplanFunc {
	return func(env *sim.Env, old *strategy.Strategy, alive []bool) (*strategy.Strategy, error) {
		*n++
		return inner(env, old, alive)
	}
}

func TestCachedReplanHitsOnRecurringFleetShape(t *testing.T) {
	env := sigEnv(cnn.VGG16(), 3, []float64{100, 100, 200}, device.Xavier, device.Nano, device.TX2)
	boundaries := strategy.SingleVolume(env.Model)
	h := strategy.VolumeHeight(env.Model, boundaries, 0)
	old := &strategy.Strategy{
		Boundaries: boundaries,
		Splits:     [][]int{strategy.EqualCuts(h, 3)},
	}
	cache := New(0)
	var innerCalls int
	replan := CachedReplan(cache, nil, PlannerID{Method: "BalancedReplan"}, countReplans(&innerCalls, splitter.BalancedReplan))
	alive := []bool{true, false, true}

	first, err := replan(env, old, alive)
	if err != nil {
		t.Fatal(err)
	}
	if innerCalls != 1 {
		t.Fatalf("inner replanner ran %d times, want 1", innerCalls)
	}
	if err := first.Validate(env.Model, 3); err != nil {
		t.Fatalf("replanned strategy invalid: %v", err)
	}
	// Same failure shape again: must be served from the cache.
	second, err := replan(env, old, alive)
	if err != nil {
		t.Fatal(err)
	}
	if innerCalls != 1 {
		t.Fatalf("inner replanner ran %d times on the recurring shape, want 1", innerCalls)
	}
	if st := cache.Stats(); st.Hits != 1 {
		t.Fatalf("stats %+v, want 1 hit on the second replan", st)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached replan differs from the searched one")
	}
	// The dead provider must own nothing in the lifted strategy.
	for v := 0; v < second.NumVolumes(); v++ {
		if r := second.PartRange(env.Model, v, 1); !r.Empty() {
			t.Errorf("volume %d: dead provider still owns %v", v, r)
		}
	}
}

func TestCachedReplanFallsBackOnInnerError(t *testing.T) {
	env := sigEnv(cnn.VGG16(), 3, []float64{100, 100}, device.Xavier, device.Nano)
	boundaries := strategy.SingleVolume(env.Model)
	h := strategy.VolumeHeight(env.Model, boundaries, 0)
	old := &strategy.Strategy{Boundaries: boundaries, Splits: [][]int{strategy.EqualCuts(h, 2)}}
	replan := CachedReplan(New(0), nil, PlannerID{Method: "BalancedReplan"}, splitter.BalancedReplan)
	// Killing every provider must surface the inner replanner's error, not
	// a cache artifact.
	if _, err := replan(env, old, []bool{false, false}); err == nil {
		t.Fatal("all-dead fleet replanned successfully")
	}
}
