package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current output")

// TestFiguresMatchGolden pins every simulator-side figure at the tiny
// budget and seed 1 byte for byte. The wall-clock lines ("(fig N took
// …)" and the planner's "plans/sec:") are stripped before comparing.
// Under the race detector only the cheapest figures run. Run with
// -update to rewrite the goldens after an intended change.
func TestFiguresMatchGolden(t *testing.T) {
	figs := []string{"4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15", "16", "churn", "objective", "gateway", "planner"}
	if raceEnabled {
		figs = []string{"4", "7", "12", "14", "15", "16", "churn", "gateway"}
	}
	for _, fig := range figs {
		t.Run(fig, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(&out, []string{"-fig", fig, "-budget", "tiny", "-seed", "1"}); err != nil {
				t.Fatalf("distbench -fig %s: %v", fig, err)
			}
			checkGolden(t, filepath.Join("testdata", "golden", "fig_"+fig+".txt"), stripTimings(out.Bytes()))
		})
	}
}

// stripTimings drops the lines that carry wall-clock measurements.
func stripTimings(b []byte) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(b, []byte("\n")) {
		if bytes.HasPrefix(line, []byte("(fig ")) || bytes.HasPrefix(line, []byte("plans/sec:")) {
			continue
		}
		out = append(out, line...)
	}
	return out
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (rerun with -update if intended)\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-nosuchflag"},
		{"-budget", "huge"},
		{"-fig", "nosuchfig", "-budget", "tiny"},
	} {
		var out bytes.Buffer
		if err := run(&out, args); err == nil {
			t.Errorf("distbench %v: accepted", args)
		}
	}
}
