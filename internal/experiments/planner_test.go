package experiments

import (
	"testing"

	"distredge/internal/plancache"
)

// TestPlannerSweepPhasesAndDeterminism drives the three phases of the
// planner-service sweep at the tiny budget and pins the phase contracts:
// every cold planning is cold, every exact re-planning is a signature hit
// with an identical score, every warm planning warm-starts with a donor
// key, and the rows are byte-identical for any worker count.
func TestPlannerSweepPhasesAndDeterminism(t *testing.T) {
	runSweep := func(parallel int) ([]PlannerRow, []PlannerRow, []PlannerRow, plancache.Stats) {
		t.Helper()
		b := Tiny()
		b.Parallel = parallel
		ps := NewPlannerSweep(b)
		cold, err := ps.Cold()
		if err != nil {
			t.Fatal(err)
		}
		exact, err := ps.Exact()
		if err != nil {
			t.Fatal(err)
		}
		warm, err := ps.Warm()
		if err != nil {
			t.Fatal(err)
		}
		if err := ps.WarmReference(warm); err != nil {
			t.Fatal(err)
		}
		return cold, exact, warm, ps.Stats()
	}

	cold, exact, warm, stats := runSweep(1)
	if len(cold) != 4 || len(exact) != 4 || len(warm) != 4 {
		t.Fatalf("row counts cold/exact/warm = %d/%d/%d, want 4 each", len(cold), len(exact), len(warm))
	}
	for i := range cold {
		if cold[i].Outcome != plancache.OutcomeCold {
			t.Errorf("cold row %s: outcome %q", cold[i].Fleet, cold[i].Outcome)
		}
		if exact[i].Outcome != plancache.OutcomeHit {
			t.Errorf("exact row %s: outcome %q", exact[i].Fleet, exact[i].Outcome)
		}
		if exact[i].Fleet != cold[i].Fleet || exact[i].Score != cold[i].Score {
			t.Errorf("exact row %s must serve the cold plan's score: %g vs %g",
				exact[i].Fleet, exact[i].Score, cold[i].Score)
		}
	}
	for _, r := range warm {
		if r.Outcome != plancache.OutcomeWarm {
			t.Errorf("warm row %s: outcome %q, want warm", r.Fleet, r.Outcome)
		}
		if r.SeedKey == "" {
			t.Errorf("warm row %s: no donor signature", r.Fleet)
		}
		if r.ColdScore <= 0 {
			t.Errorf("warm row %s: cold reference score %g not filled", r.Fleet, r.ColdScore)
		}
	}
	// Cold: 4 misses into empty caches. Exact: 4 hits. Warm: 4 misses that
	// each warm-started.
	want := plancache.Stats{Hits: 4, Misses: 8, WarmHits: 4}
	if stats != want {
		t.Errorf("aggregated cache stats = %+v, want %+v", stats, want)
	}

	pc, pe, pw, pstats := runSweep(4)
	if stats != pstats {
		t.Errorf("parallel sweep stats differ: %+v vs %+v", pstats, stats)
	}
	for i := range cold {
		if pc[i] != cold[i] || pe[i] != exact[i] || pw[i] != warm[i] {
			t.Fatalf("row %d differs between worker counts:\n%+v\n%+v\n%+v\nvs\n%+v\n%+v\n%+v",
				i, pc[i], pe[i], pw[i], cold[i], exact[i], warm[i])
		}
	}
}
