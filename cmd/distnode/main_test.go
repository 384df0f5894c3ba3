package main

import (
	"testing"
	"time"
)

// TestParseKillsRejectsTimesThatFireAtOnce checks that a kill time which
// would not convert to a non-negative Duration is refused instead of
// killing the provider at t = 0.
func TestParseKillsRejectsTimesThatFireAtOnce(t *testing.T) {
	for _, spec := range []string{"0@inf", "0@NaN", "0@1e300", "0@-1"} {
		if kills, err := parseKills(spec); err == nil {
			t.Errorf("parseKills(%q) = %+v, want an error", spec, kills)
		}
	}
	kills, err := parseKills("1@0.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(kills) != 1 || kills[0].dev != 1 || kills[0].after != 500*time.Millisecond {
		t.Fatalf("parseKills(1@0.5) = %+v, want device 1 after 500ms", kills)
	}
}
