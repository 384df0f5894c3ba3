package runtime

import (
	"testing"

	"distredge/internal/device"
	"distredge/internal/plancache"
	"distredge/internal/sim"
	"distredge/internal/splitter"
)

// TestCachedReplanCutsRecoveryTime is the planner-as-a-service churn
// acceptance test: two deployments of the same fleet share one plan cache
// and lose the same provider. The first recovery misses the cache and pays
// the full OSDS search; the second sees the identical survivor-fleet
// signature, hits the cache, skips the search and records a strictly lower
// ReplanMS.
func TestCachedReplanCutsRecoveryTime(t *testing.T) {
	env := testEnv(device.Xavier, device.Nano, device.TX2, device.Nano)
	s := stageStrategy(env, env.Model, []int{0, 10, 14, 18})
	cache := plancache.New(plancache.DefaultCapacity)
	// A search budget big enough that a cache hit is unmistakably cheaper
	// than the miss, small enough to keep the test quick.
	searchCfg := splitter.Config{
		Episodes:  40,
		Hidden:    []int{16, 16},
		Batch:     16,
		Seed:      1,
		WarmStart: true,
	}
	search := splitter.SearchReplan(searchCfg)
	id := plancache.PlannerID{Method: "SearchReplan", Episodes: searchCfg.Episodes,
		Hidden: searchCfg.Hidden, Batch: searchCfg.Batch, Seed: searchCfg.Seed}

	run := func() (replanMS float64) {
		t.Helper()
		opts := recoverOpts()
		opts.Replan = plancache.CachedReplan(cache, nil, id, search)
		cl, err := Deploy(env, s, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		const images = 24
		stats, err := stream(cl, images, 4, sim.ChurnEvent{At: 0.4, Kind: sim.DeviceDrop, Device: 1})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Completed != images {
			t.Fatalf("completed %d of %d images", stats.Completed, images)
		}
		if stats.Recoveries < 1 {
			t.Fatalf("no recovery recorded: %+v", stats)
		}
		_, _, replanMS, _ = cl.Recovery()
		return replanMS
	}

	cold := run()
	cs := cache.Stats()
	if cs.Misses < 1 || cs.Hits != 0 {
		t.Fatalf("first recovery must miss the empty cache: %+v", cs)
	}
	if cache.Len() == 0 {
		t.Fatal("first recovery did not populate the cache")
	}

	warm := run()
	cs = cache.Stats()
	if cs.Hits < 1 {
		t.Fatalf("second recovery into the same fleet shape must hit the cache: %+v", cs)
	}
	t.Logf("replan cost: cold %.1fms, cached %.1fms", cold, warm)
	if warm >= cold {
		t.Errorf("cached re-plan %.1fms not below cold search %.1fms", warm, cold)
	}
	// The cached recovery still idles the dead provider.
	// (Lift gives quarantined providers empty parts by construction; the
	// basic recovery test pins that shape, so here only the cost and the
	// counters matter.)
}
