package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current output")

// TestOutputMatchesGolden pins the command's fixed-seed reports byte for
// byte: planning, the sequential and pipelined evaluations, the Gantt
// chart, every baseline and churn replays. Run with -update to rewrite
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
		// The predicted lines serve the scenario -deploy would run: the
		// tenants' 12 images, not -images, and the re-planner the deployed
		// fleet recovers with.
		{"tenants_churn", []string{"-seed", "1", "-effort", "tiny", "-tenants", "heavy:8x1,light:4x2", "-window", "2", "-churn", "drop:1@0.5"}},
		{"ips_churn", []string{"-seed", "1", "-effort", "tiny", "-objective", "ips", "-window", "4", "-churn", "drop:1@0.5"}},
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
		{"-effort", "tiny", "-deploy", "-tenants", "heavy:0x1"},
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

// TestDeployRunsTheChurnScenario checks that -deploy runs the scenario the
// simulator just evaluated, its drop included, on the deployed fleet. It
// runs on the wall clock, so it is not a golden: with recovery every image
// completes and the deployed report shows one recovery; with -norecover the
// drop is sticky, the loss is reported and the command fails.
func TestDeployRunsTheChurnScenario(t *testing.T) {
	// The drop lands 1 model second into a stream of about 1.9: the
	// emulated compute cannot finish the stream any sooner.
	args := []string{"-effort", "tiny", "-images", "32", "-window", "4", "-transport", "inproc",
		"-churn", "drop:1@1", "-deploy"}
	deployed := func(out string) string {
		i := strings.Index(out, "\ndeployed ")
		if i < 0 {
			t.Fatalf("no deployed report in:\n%s", out)
		}
		return out[i+1:]
	}
	var out bytes.Buffer
	if err := run(&out, args); err != nil {
		t.Fatalf("distredge %v: %v\n%s", args, err, out.Bytes())
	}
	rep := deployed(out.String())
	if !strings.Contains(rep, "completed=32/32") || strings.Count(rep, "recovered 1 time(s)") != 1 ||
		!strings.Contains(rep, "quarantined [1]") {
		t.Errorf("recovering deployment, want every image and one recovery of provider 1:\n%s", rep)
	}

	out.Reset()
	args = append(args, "-norecover")
	if err := run(&out, args); err == nil {
		t.Errorf("distredge %v: a sticky loss must fail the command", args)
	}
	rep = deployed(out.String())
	if strings.Contains(rep, "completed=32/32") || !strings.Contains(rep, "images lost") || strings.Contains(rep, "recovered") {
		t.Errorf("sticky deployment, want a reported loss and no recovery:\n%s", rep)
	}
}

// TestPlanCacheRecoversForTheServedBatch checks that -plancache changes
// where a recovery re-plan comes from, not what it optimises: under
// -objective ips the cached re-planner scores for the -batch the fleet
// serves with, so the predicted churn line matches the uncached run's.
func TestPlanCacheRecoversForTheServedBatch(t *testing.T) {
	churnLine := func(args ...string) string {
		var out bytes.Buffer
		if err := run(&out, args); err != nil {
			t.Fatalf("distredge %v: %v", args, err)
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "churn ") {
				return line
			}
		}
		t.Fatalf("distredge %v printed no churn line:\n%s", args, out.Bytes())
		return ""
	}
	args := []string{"-seed", "1", "-effort", "tiny", "-objective", "ips", "-batch", "4", "-window", "4", "-churn", "drop:0@0.5"}
	direct := churnLine(args...)
	if cached := churnLine(append(args, "-plancache", "8")...); cached != direct {
		t.Errorf("re-planned through the plan cache:\n%s\nwant the uncached re-plan's\n%s", cached, direct)
	}
}
