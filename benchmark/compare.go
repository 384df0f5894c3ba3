package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of a comparison, per (workload, end-to-end metric).
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved" // a side's own spread is wider than the bound
)

// side summarises one result file's reading of one metric: the reported
// value (med, whatever statistic over windows the metric uses) with the
// windows' quartiles, and the quartile distance as a share of the value.
type side struct {
	q1, med, q3 float64
	spread      float64
	values      []float64
}

func summarise(st Stat) side {
	vals := st.PerWindow
	if len(vals) == 0 {
		vals = []float64{st.Value}
	}
	q1, _, q3 := quartiles(vals)
	s := side{q1: q1, med: st.Value, q3: q3, values: vals}
	if st.Value != 0 {
		s.spread = (q3 - q1) / st.Value
		if s.spread < 0 {
			s.spread = -s.spread
		}
	}
	return s
}

// judge compares b against a for a metric with the given direction and
// bound. worsening is how far b's median is on the wrong side of a's, as a
// share of a's.
func judge(a, b side, better string, bound float64) (verdict string, worsening float64) {
	if a.med != 0 {
		worsening = (b.med - a.med) / a.med
		if better == "higher" {
			worsening = -worsening
		}
	}
	if a.spread > bound || b.spread > bound {
		// Too noisy to call — unless every window of b beats every window
		// of a.
		allBetter := true
		for _, x := range b.values {
			for _, y := range a.values {
				if (better == "lower" && x >= y) || (better == "higher" && x <= y) {
					allBetter = false
				}
			}
		}
		if allBetter {
			return verdictBetter, worsening
		}
		return verdictUnresolved, worsening
	}
	switch {
	case worsening > bound:
		return verdictWorse, worsening
	case worsening < -bound:
		return verdictBetter, worsening
	default:
		return verdictSame, worsening
	}
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// compareFiles prints, for every (workload, end-to-end metric) both files
// measured untraced, both medians with their quartiles over windows, the
// bound and a verdict. It exits 1 if anything is worse or unresolved.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	var files [2]*resultFile
	for i, path := range []string{pathA, pathB} {
		rf, err := readResultFile(path)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
		files[i] = rf
	}
	return compareResults(files[0], files[1], stdout)
}

func compareResults(a, b *resultFile, stdout io.Writer) int {
	find := func(rf *resultFile, workload string) *RunRecord {
		for _, r := range rf.Runs {
			if r.Workload == workload && !r.Traced {
				return r
			}
		}
		return nil
	}
	fmt.Fprintf(stdout, "%-13s %-22s %-34s %-34s %6s %8s  %s\n", "workload", "metric", "A value [q1, q3]", "B value [q1, q3]", "bound", "B vs A", "verdict")
	code := 0
	for _, name := range workloadNames {
		ra, rb := find(a, name), find(b, name)
		if ra == nil || rb == nil {
			continue
		}
		for _, d := range endToEnd {
			sa, okA := ra.Metrics[d.Name]
			sb, okB := rb.Metrics[d.Name]
			if !okA || !okB {
				continue
			}
			x, y := summarise(sa), summarise(sb)
			bound := d.bound(name)
			if d.Name == "setup_s" {
				// Three set-ups a run: their quartiles say nothing about
				// run-to-run spread. Judge the medians alone.
				x.spread, y.spread = 0, 0
			}
			verdict, worsening := judge(x, y, d.Better, bound)
			if verdict == verdictWorse || verdict == verdictUnresolved {
				code = 1
			}
			cell := func(s side) string { return fmt.Sprintf("%.5g [%.5g, %.5g]", s.med, s.q1, s.q3) }
			fmt.Fprintf(stdout, "%-13s %-22s %-34s %-34s %6.3f %+7.2f%%  %s\n", name, d.Name, cell(x), cell(y), bound, -100*worsening, verdict)
		}
	}
	return code
}
