// Command benchmark is the repository's end-to-end benchmark: five named
// workloads, eleven end-to-end metrics measured with tracing off, and a
// separate traced run whose wrappers on the seams between layers give the
// per-layer metrics. README.md in this directory explains every workload,
// metric and bound; BENCHMARK.json at the repository root is the contract
// the acceptance driver runs it under.
//
//	go run ./benchmark                          every workload, untraced
//	go run ./benchmark -traced                  ... and traced
//	go run ./benchmark -workload wire-small     one workload
//	go run ./benchmark -compare A.json B.json   two result files
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1
//	                                            one run, the driver's form
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run (default: all): "+strings.Join(workloadNames, ", "))
		seed     = fs.Int64("seed", 1, "seed of the generated inputs: the open-loop arrival schedule and the planning request order")
		seconds  = fs.Float64("seconds", 20, "length of the untraced measured phase; a window is a fifth of it")
		trace    = fs.Int("trace", -1, "0 or 1: make exactly one run of -workload, untraced or traced, in this process, and print the result object as the last line")
		traced   = fs.Bool("traced", false, "after each workload's untraced run, make its traced run too")
		compare  = fs.Bool("compare", false, "compare two result files given as arguments")
		result   = fs.String("result", "", "where to write the result file (default benchmark/out/result-seed<N>.json)")
		record   = fs.String("record", "", "with -trace: also write the run's full record to this file")
		smoke    = fs.Bool("smoke", false, "tiny budgets and sub-second phases: checks that everything runs, measures nothing")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive")
		return 2
	}
	names := workloadNames
	if *workload != "" {
		names = strings.Split(*workload, ",")
		for _, n := range names {
			if _, ok := workloadWhy[n]; !ok {
				fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s)\n", n, strings.Join(workloadNames, ", "))
				return 2
			}
		}
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, smoke: *smoke}

	if *trace >= 0 {
		if len(names) != 1 || *trace > 1 {
			fmt.Fprintln(stderr, "benchmark: -trace takes 0 or 1 and exactly one -workload")
			return 2
		}
		cfg.traced = *trace == 1
		return runOne(names[0], cfg, *record, stdout, stderr)
	}
	return runSuite(names, cfg, *traced, *result, stdout, stderr)
}

// runWorkload dispatches one run.
func runWorkload(name string, cfg runConfig) (*RunRecord, error) {
	if name == wlPlanMix {
		return runPlanMix(cfg)
	}
	return runServing(servingWorkloads[name], cfg)
}

// contractResult is the object the acceptance driver reads from the last
// line of standard output.
type contractResult struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine reduces a run record to the driver's object: every
// end-to-end metric of an untraced run, every per-layer metric of a traced
// one. A per-layer metric the workload does not exercise reads 0; a missing
// end-to-end metric makes the run incorrect.
func contractLine(rec *RunRecord) contractResult {
	out := contractResult{Correct: rec.Correct, Attempted: max(rec.Attempted, 1), Failed: rec.Failed, Metrics: make(map[string]contractMetric)}
	defs := endToEnd
	if rec.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		st, ok := rec.Metrics[d.Name]
		if !ok && !rec.Traced {
			out.Correct = false
		}
		out.Metrics[d.Name] = contractMetric{Value: st.Value, Unit: d.Unit}
	}
	return out
}

func printRecord(w io.Writer, rec *RunRecord) {
	for _, name := range sortedKeys(rec.Metrics) {
		fmt.Fprintln(w, fmtStat(rec.Workload, name, rec.Metrics[name]))
	}
	for _, name := range sortedKeys(rec.Info) {
		fmt.Fprintln(w, fmtStat(rec.Workload, "("+name+")", rec.Info[name]))
	}
	for _, v := range rec.Warnings {
		fmt.Fprintf(w, "%-13s WARNING %s\n", rec.Workload, v)
	}
	for _, v := range rec.Violations {
		fmt.Fprintf(w, "%-13s VIOLATION %s\n", rec.Workload, v)
	}
}

// runOne makes a single run in this process — the caller started a fresh
// one for it — prints every metric, and ends with the driver's object.
func runOne(name string, cfg runConfig, recordPath string, stdout, stderr io.Writer) int {
	rec, err := runWorkload(name, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
		return 1
	}
	printRecord(stdout, rec)
	if recordPath != "" {
		if err := writeJSON(recordPath, rec); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	line := contractLine(rec)
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	if !line.Correct {
		return 1
	}
	return 0
}

// resultFile is the machine-written result of a suite run.
type resultFile struct {
	Environment environment  `json:"environment"`
	Runs        []*RunRecord `json:"runs"`
	// Claim is always null: the benchmark reports, it claims no gain.
	Claim *string `json:"claim"`
}

type environment struct {
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	WindowSec  float64 `json:"window_sec"`
	Windows    int     `json:"untraced_windows"`
	TracedWin  int     `json:"traced_windows"`
	Smoke      bool    `json:"smoke,omitempty"`
}

// commit names the tree being measured: the revision the toolchain stamped
// into the binary, else (go run does not stamp) what git says, else
// "unknown" — the acceptance driver's checkout is not a repository.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runSuite runs every requested workload, each run in a fresh child
// process of this same binary so that heap, payload pools and peak RSS
// belong to one workload, then prints every metric and writes the result
// file.
func runSuite(names []string, cfg runConfig, traced bool, resultPath string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	res := resultFile{Environment: environment{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: commit(), Seed: cfg.seed, Seconds: cfg.seconds, WindowSec: float64(cfg.windowNS()) / 1e9,
		Windows: untracedWindows, TracedWin: tracedWindows, Smoke: cfg.smoke,
	}}
	tmp, err := os.MkdirTemp(outDirFor(resultPath), "run-*")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	code := 0
	for _, name := range names {
		modes := []int{0}
		if traced {
			modes = append(modes, 1)
		}
		for _, mode := range modes {
			recPath := filepath.Join(tmp, fmt.Sprintf("%s-%d.json", name, mode))
			args := []string{
				"-workload", name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
				"-trace", fmt.Sprint(mode), "-record", recPath,
			}
			if cfg.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = stderr
			// The child prints the same lines; the suite prints them once,
			// from the record.
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s (trace %d): %v\n", name, mode, err)
				code = 1
			}
			var rec RunRecord
			data, err := os.ReadFile(recPath)
			if err == nil {
				err = json.Unmarshal(data, &rec)
			}
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s (trace %d): no record: %v\n", name, mode, err)
				code = 1
				continue
			}
			printRecord(stdout, &rec)
			res.Runs = append(res.Runs, &rec)
		}
	}
	if resultPath == "" {
		resultPath = filepath.Join(outDir, fmt.Sprintf("result-seed%d.json", cfg.seed))
	}
	if err := writeJSON(resultPath, &res); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "result file: %s\n", resultPath)
	return code
}

// outDirFor returns the directory scratch files of a suite run go in:
// beside the result file.
func outDirFor(resultPath string) string {
	dir := outDir
	if resultPath != "" {
		dir = filepath.Dir(resultPath)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return os.TempDir()
	}
	return dir
}
