package plancache_test

import (
	"testing"

	"distredge/internal/cnn"
	"distredge/internal/experiments"
	"distredge/internal/plancache"
	"distredge/internal/sim"
)

func benchEnv(bw float64) *sim.Env {
	return experiments.DeviceGroups()[1].Spec(cnn.VGG16(), bw, 1).Env()
}

// BenchmarkPlannerService measures plans/sec through the planner service in
// its three regimes: cold (empty cache, full LC-PSS + OSDS search), exact
// (recurring fleet signature, pure cache retrieval) and warm (near-miss
// signature, seeded from the nearest cached neighbour: at this tiny budget
// a re-score of the seed and OSDS's warm-start candidates).
// BENCH_baseline.json records the headline ratios.
func BenchmarkPlannerService(b *testing.B) {
	bud := experiments.Tiny()
	planner := experiments.Planner(bud, 0.75)

	b.Run("cold", func(b *testing.B) {
		env := benchEnv(100)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			svc, err := plancache.NewService(plancache.Config{Planner: planner})
			if err != nil {
				b.Fatal(err)
			}
			res, err := svc.Plan(env, nil)
			if err != nil {
				b.Fatal(err)
			}
			if res.Outcome != plancache.OutcomeCold {
				b.Fatalf("outcome %s, want cold", res.Outcome)
			}
		}
	})

	b.Run("exact", func(b *testing.B) {
		env := benchEnv(100)
		svc, err := plancache.NewService(plancache.Config{Planner: planner})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := svc.Plan(env, nil); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := svc.Plan(env, nil)
			if err != nil {
				b.Fatal(err)
			}
			if res.Outcome != plancache.OutcomeHit {
				b.Fatalf("outcome %s, want hit", res.Outcome)
			}
		}
	})

	b.Run("warm", func(b *testing.B) {
		donorEnv := benchEnv(100)
		env := benchEnv(70) // one half-octave bucket below: a near miss
		seedSvc, err := plancache.NewService(plancache.Config{Planner: planner})
		if err != nil {
			b.Fatal(err)
		}
		donor, err := seedSvc.Plan(donorEnv, nil)
		if err != nil {
			b.Fatal(err)
		}
		sig := plancache.SignatureOf(donorEnv, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cache := plancache.New(0)
			cache.Put(sig, donor.Strategy, donor.Score)
			svc, err := plancache.NewService(plancache.Config{Cache: cache, Planner: planner})
			if err != nil {
				b.Fatal(err)
			}
			res, err := svc.Plan(env, nil)
			if err != nil {
				b.Fatal(err)
			}
			if res.Outcome != plancache.OutcomeWarm {
				b.Fatalf("outcome %s, want warm", res.Outcome)
			}
		}
	})
}
