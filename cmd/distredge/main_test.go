package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current output")

// TestOutputMatchesGolden pins the command's fixed-seed reports byte for
// byte: planning, the sequential and pipelined evaluations, the Gantt
// chart, every baseline and a churn replay. Run with -update to rewrite
// the goldens after an intended change.
func TestOutputMatchesGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"seed1", []string{"-seed", "1"}},
		{"timeline", []string{"-seed", "1", "-timeline"}},
		{"baselines", []string{"-seed", "1", "-baselines"}},
		{"churn", []string{"-seed", "1", "-window", "4", "-churn", "drop:1@0.5,slow:2x3@1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(&out, tc.args); err != nil {
				t.Fatalf("distredge %v: %v", tc.args, err)
			}
			checkGolden(t, filepath.Join("testdata", "golden", tc.name+".txt"), out.Bytes())
		})
	}
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

// TestRunRejectsBadArgumentsBeforePlanning checks a malformed argument
// fails the run before anything is planned or printed.
func TestRunRejectsBadArgumentsBeforePlanning(t *testing.T) {
	for _, args := range [][]string{
		{"-nosuchflag"},
		{"-effort", "tiny", "-churn", "explode:1@2"},
	} {
		var out bytes.Buffer
		if err := run(&out, args); err == nil {
			t.Errorf("distredge %v: accepted", args)
		}
		if out.Len() > 0 {
			t.Errorf("distredge %v printed before failing:\n%s", args, out.Bytes())
		}
	}
}
