// Command distbench reproduces the paper's evaluation: one sub-report per
// table/figure (Fig. 4-15), printed as aligned text tables. The extra
// "fidelity" report cross-checks the simulator against the real runtime
// over a {batch} x {codec} x {wire regime} grid: each cell deploys the
// same plan with that step-batching cap over a TCP stack with that codec
// — on the free localhost wire and again trace-shaped with post-codec
// byte charging — and prints predicted vs measured IPS.
//
// Usage:
//
//	distbench -fig all -budget quick
//	distbench -fig 7 -budget full
//	distbench -fig fidelity -batches 1,4 -codecs binary,quant
//	distbench -fig fidelity -trace
//
// Budgets: tiny (seconds), quick (default, ~minutes), full (tens of
// minutes), paper (the paper's Max_ep=4000 configuration; hours).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"distredge"
	"distredge/internal/device"
	"distredge/internal/experiments"
	"distredge/internal/network"
	"distredge/internal/plot"
	"distredge/internal/runtime"
	"distredge/internal/sim"
	"distredge/internal/transport"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "distbench:", err)
		os.Exit(1)
	}
}

// run is the command: it parses args on a FlagSet of its own and writes
// the reports to w, so tests can drive it in-process.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("distbench", flag.ContinueOnError)
	fig := fs.String("fig", "all", "figure to reproduce: 4,5,6,7,8,9,10,11,12,13,14,15,16, 'churn', 'objective', 'gateway', 'planner', 'fidelity' or 'all'")
	budget := fs.String("budget", "quick", "planning budget: tiny|quick|full|paper")
	seed := fs.Int64("seed", 1, "random seed")
	reps := fs.Int("reps", 10, "LC-PSS repetitions for Fig. 6")
	parallel := fs.Int("parallel", 1, "workers for the case×method grids (results are identical for any value; -1 = one per CPU)")
	windows := fs.String("windows", "1,2,4,8", "admission-window sizes for the fig 16 and churn sweeps")
	fracs := fs.String("failfracs", "0.25,0.5,0.75", "failure times for the churn sweep, as fractions of the churn-free run")
	batchesSpec := fs.String("batches", "1,4", "for -fig fidelity: step-batching caps of the grid")
	codecsSpec := fs.String("codecs", "binary,quant,quant+deflate", "for -fig fidelity: chunk codecs of the grid (binary|deflate|quant|quant16|quant+deflate)")
	trace := fs.Bool("trace", false, "for -fig fidelity: only the trace-shaped wire regime (skip the free-wire rows)")
	objectiveSpec := fs.String("objective", "", "for -fig fidelity: deploy a strategy planned with this objective (latency|ips|slo) instead of the CoEdge baseline")
	objWindow := fs.Int("objwindow", 4, "admission window the ips objective optimises for (-fig objective and -objective ips)")
	tenantsSpec := fs.String("tenants", "heavy:24x1,small:4x4", "for -fig gateway: tenant mix as name:IMAGESxWEIGHT,...")
	sloMS := fs.Float64("slo", 0, "p95 latency bound in ms: marks -fig gateway rows and bounds -objective slo plans (model-scale ms)")
	mutexProfile := fs.String("mutexprofile", "", "write a mutex-contention pprof profile to this file on exit")
	blockProfile := fs.String("blockprofile", "", "write a blocking pprof profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *mutexProfile != "" {
		goruntime.SetMutexProfileFraction(1)
	}
	if *blockProfile != "" {
		goruntime.SetBlockProfileRate(1)
	}

	b, ok := experiments.BudgetNamed(*budget)
	if !ok {
		return fmt.Errorf("unknown budget %q", *budget)
	}
	b.Seed = *seed
	b.Parallel = *parallel

	winSizes, err := parseWindows(*windows)
	if err != nil {
		return fmt.Errorf("bad -windows %q: %v", *windows, err)
	}
	failFracs, err := parseFracs(*fracs)
	if err != nil {
		return fmt.Errorf("bad -failfracs %q: %v", *fracs, err)
	}
	batches, err := parseWindows(*batchesSpec)
	if err != nil {
		return fmt.Errorf("bad -batches %q: %v", *batchesSpec, err)
	}
	codecs, err := parseCodecs(*codecsSpec)
	if err != nil {
		return fmt.Errorf("bad -codecs %q: %v", *codecsSpec, err)
	}

	tenants, err := distredge.ParseTenants(*tenantsSpec)
	if err != nil {
		return fmt.Errorf("bad -tenants %q: %v", *tenantsSpec, err)
	}

	figs := []string{"4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15", "16", "churn", "objective", "gateway", "planner"}
	if *fig != "all" {
		figs = []string{*fig}
	}

	for _, f := range figs {
		start := time.Now()
		if err := runFig(w, f, b, *reps, winSizes, failFracs, batches, codecs, *trace, *objectiveSpec, *objWindow, tenants, *sloMS); err != nil {
			writeProfiles(*mutexProfile, *blockProfile)
			return fmt.Errorf("fig %s: %w", f, err)
		}
		fmt.Fprintf(w, "(fig %s took %.1fs)\n\n", f, time.Since(start).Seconds())
	}
	writeProfiles(*mutexProfile, *blockProfile)
	return nil
}

// writeProfiles dumps the mutex/block pprof profiles the -mutexprofile and
// -blockprofile flags armed — contention evidence for any run (e.g.
// `distbench -fig fidelity -mutexprofile mutex.pb.gz`, then
// `go tool pprof mutex.pb.gz`).
func writeProfiles(mutexPath, blockPath string) {
	write := func(name, path string) {
		if path == "" {
			return
		}
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s profile: %v\n", name, err)
			return
		}
		defer f.Close()
		if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
			fmt.Fprintf(os.Stderr, "%s profile: %v\n", name, err)
		}
	}
	write("mutex", mutexPath)
	write("block", blockPath)
}

func parseFracs(spec string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, err
		}
		if f <= 0 || f >= 1 {
			return nil, fmt.Errorf("fraction %g outside (0,1)", f)
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no fractions")
	}
	return out, nil
}

func parseWindows(spec string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		w, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		if w < 1 {
			return nil, fmt.Errorf("window %d < 1", w)
		}
		out = append(out, w)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no window sizes")
	}
	return out, nil
}

// parseCodecs validates the fidelity grid's codec axis: each name maps to
// a TCP stack ("binary" to plain tcp, anything else to
// "tcp+"+name), so the set of legal names is exactly ParseTransport's.
func parseCodecs(spec string) ([]string, error) {
	var out []string
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if _, err := distredge.ParseTransport(codecTransportSpec(part)); err != nil {
			return nil, fmt.Errorf("codec %q: %v", part, err)
		}
		out = append(out, part)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no codecs")
	}
	return out, nil
}

func codecTransportSpec(codec string) string {
	if codec == "binary" {
		return "tcp"
	}
	return "tcp+" + codec
}

func runFig(w io.Writer, fig string, b experiments.Budget, reps int, windows []int, failFracs []float64, batches []int, codecs []string, trace bool, objectiveSpec string, objWindow int, tenants []sim.TenantSpec, sloMS float64) error {
	if fig == "fidelity" {
		return fidelity(w, b, batches, codecs, trace, objectiveSpec, objWindow, sloMS)
	}
	if fig == "planner" {
		return planner(w, b)
	}
	if fig == "gateway" {
		header(w, "Gateway — multi-tenant admission: FIFO vs weighted fair queueing")
		rows, err := experiments.FigGateway(b, tenants, objWindow, sloMS)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-24s %-6s %-8s %7s %7s %8s %9s %9s %5s\n",
			"case", "policy", "tenant", "weight", "images", "IPS", "lat(ms)", "p95(ms)", "slo")
		lastSeries := ""
		for _, r := range rows {
			series := r.Case + "/" + r.Policy
			if series != lastSeries && lastSeries != "" {
				fmt.Fprintln(w)
			}
			lastSeries = series
			slo := "ok"
			if !r.SLOMet {
				slo = "MISS"
			}
			if sloMS <= 0 {
				slo = "-"
			}
			fmt.Fprintf(w, "%-24s %-6s %-8s %7.1f %7d %8.2f %9.1f %9.1f %5s\n",
				r.Case, r.Policy, r.Tenant, r.Weight, r.Images, r.IPS, r.MeanLatMS, r.P95LatMS, slo)
		}
		return nil
	}
	if fig == "objective" {
		header(w, "Objective — latency-optimal vs throughput-optimal (IPS) planner")
		rows, err := experiments.FigObjective(b, windows, objWindow)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-24s %-9s %7s %8s %8s %9s %9s\n",
			"case", "planner", "window", "IPS", "steady", "lat(ms)", "p95(ms)")
		lastSeries := ""
		for _, r := range rows {
			series := r.Case + "/" + r.Planner
			if series != lastSeries && lastSeries != "" {
				fmt.Fprintln(w)
			}
			lastSeries = series
			fmt.Fprintf(w, "%-24s %-9s %7d %8.2f %8.2f %9.1f %9.1f\n",
				r.Case, r.Planner, r.Window, r.IPS, r.SteadyIPS, r.MeanLatMS, r.P95LatMS)
		}
		return nil
	}
	if fig == "churn" {
		header(w, "Churn — goodput & time-to-recover under a mid-stream device failure")
		rows, err := experiments.FigChurnRecovery(b, windows, failFracs)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-24s %7s %6s %5s %9s %11s %11s %9s %9s\n",
			"case", "window", "fail@", "drop", "base IPS", "goodput on", "goodput off", "recov(s)", "requeued")
		lastCase := ""
		for _, r := range rows {
			if r.Case != lastCase && lastCase != "" {
				fmt.Fprintln(w)
			}
			lastCase = r.Case
			fmt.Fprintf(w, "%-24s %7d %5.0f%% %5d %9.2f %11.2f %11.2f %9.3f %9d\n",
				r.Case, r.Window, 100*r.FailFrac, r.DropDevice, r.BaseIPS,
				r.GoodputOn, r.GoodputOff, r.RecoverSec, r.Requeued)
		}
		return nil
	}
	n, err := strconv.Atoi(fig)
	if err != nil {
		return fmt.Errorf("unknown figure %q", fig)
	}
	switch n {
	case 4:
		header(w, "Fig. 4 — stable WiFi throughput traces")
		printTraces(w, experiments.Fig04StableTraces(b.Seed))
		var series []plot.Series
		for _, bw := range []float64{300, 200, 100, 50} {
			tr := network.Stable(bw, 60, b.Seed+int64(bw))
			series = append(series, plot.Series{Name: fmt.Sprintf("%gMbps", bw), Values: tr.Mbps})
		}
		fmt.Fprint(w, plot.Lines(series, 64))
	case 5:
		header(w, "Fig. 5 — IPS vs LC-PSS alpha (VGG-16)")
		rows, err := experiments.Fig05AlphaSweep(b, 0)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-16s %6s %8s %8s\n", "case", "alpha", "volumes", "IPS")
		for _, r := range rows {
			fmt.Fprintf(w, "%-16s %6.2f %8d %8.2f\n", r.Case, r.Alpha, r.Volumes, r.IPS)
		}
	case 6:
		header(w, "Fig. 6 — IPS spread vs |Rrs| (VGG-16)")
		rows, err := experiments.Fig06RrsSweep(b, reps)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-14s %5s %5s %8s %8s %8s\n", "case", "Rrs", "reps", "min", "mean", "max")
		for _, r := range rows {
			fmt.Fprintf(w, "%-14s %5d %5d %8.2f %8.2f %8.2f\n", r.Case, r.Rrs, r.Reps, r.MinIPS, r.MeanIPS, r.MaxIPS)
		}
	case 7:
		header(w, "Fig. 7 — heterogeneous devices (Table I), VGG-16")
		rows, err := experiments.Fig07HeterogeneousDevices(b)
		if err != nil {
			return err
		}
		printMethodRows(w, rows)
	case 8:
		header(w, "Fig. 8 — heterogeneous networks (Table II), VGG-16")
		rows, err := experiments.Fig08HeterogeneousNetworks(b)
		if err != nil {
			return err
		}
		printMethodRows(w, rows)
	case 9:
		header(w, "Fig. 9 — large scale: 16 devices (Table III), VGG-16")
		rows, err := experiments.Fig09LargeScale(b)
		if err != nil {
			return err
		}
		printMethodRows(w, rows)
	case 10:
		header(w, "Fig. 10 — other models, Group DB @ 50 Mbps")
		rows, err := experiments.Fig10ModelsDB(b)
		if err != nil {
			return err
		}
		printMethodRows(w, rows)
	case 11:
		header(w, "Fig. 11 — other models, Group NA with Nano fleet")
		rows, err := experiments.Fig11ModelsNA(b)
		if err != nil {
			return err
		}
		printMethodRows(w, rows)
	case 12:
		header(w, "Fig. 12 — highly dynamic throughput traces")
		printTraces(w, experiments.Fig12DynamicTraces(b.Seed))
		var series []plot.Series
		for i := 0; i < 4; i++ {
			tr := network.Dynamic(40, 100, 60, b.Seed+int64(i)*31)
			series = append(series, plot.Series{Name: fmt.Sprintf("device-%d", i+1), Values: tr.Mbps})
		}
		fmt.Fprint(w, plot.Lines(series, 64))
	case 13:
		header(w, "Fig. 13 — per-image latency under dynamic networks (4x Nano)")
		rows, err := experiments.Fig13DynamicLatency(b)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%6s %12s %12s %12s\n", "minute", "CoEdge(ms)", "AOFL(ms)", "DistrEdge(ms)")
		for _, r := range rows {
			if r.MinuteSlot%5 == 0 {
				fmt.Fprintf(w, "%6d %12.1f %12.1f %12.1f\n", r.MinuteSlot, r.CoEdgeMS, r.AOFLMS, r.DistrEdgeMS)
			}
		}
		s := experiments.Summarise(rows)
		fmt.Fprintf(w, "means: CoEdge %.1fms  AOFL %.1fms  DistrEdge %.1fms  (DistrEdge/AOFL = %.0f%%)\n",
			s.MeanCoEdgeMS, s.MeanAOFLMS, s.MeanDistrEdgeMS, 100*s.DistrEdgeOverAOFL)
		co := make([]float64, len(rows))
		ao := make([]float64, len(rows))
		de := make([]float64, len(rows))
		for i, r := range rows {
			co[i], ao[i], de[i] = r.CoEdgeMS, r.AOFLMS, r.DistrEdgeMS
		}
		fmt.Fprint(w, plot.Lines([]plot.Series{
			{Name: "AOFL", Values: ao},
			{Name: "CoEdge", Values: co},
			{Name: "DistrEdge", Values: de},
		}, 60))
	case 14:
		header(w, "Fig. 14 — computing latency vs output extent (10-layer volume)")
		for _, dt := range []device.Type{device.Xavier, device.TX2, device.Nano, device.Pi3} {
			rows := experiments.Fig14Nonlinear(dt)
			fmt.Fprintf(w, "%-7s staircaseness=%.2f  lat(50)=%.1fms lat(150)=%.1fms lat(250)=%.1fms lat(350)=%.1fms\n",
				dt, experiments.Staircaseness(rows),
				rows[0].LatencyMS, rows[50].LatencyMS, rows[100].LatencyMS, rows[150].LatencyMS)
		}
		// The staircase itself, on the widest-wave device.
		xa := experiments.Fig14Nonlinear(device.Xavier)
		curve := make([]float64, len(xa))
		for i, r := range xa {
			curve[i] = r.LatencyMS
		}
		fmt.Fprintf(w, "xavier  %s\n", plot.Sparkline(plot.Downsample(curve, 72)))
	case 15:
		header(w, "Fig. 15 — max transmission & computing latency (DB, 50 Mbps)")
		rows, err := experiments.Fig15Breakdown(b)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-14s %12s %12s\n", "method", "maxTrans(ms)", "maxComp(ms)")
		for _, r := range rows {
			fmt.Fprintf(w, "%-14s %12.1f %12.1f\n", r.Method, r.MaxTransMS, r.MaxCompMS)
		}
	case 16:
		header(w, "Fig. 16 — sustained IPS vs admission window (pipelined serving)")
		rows, err := experiments.Fig16WindowSweep(b, windows)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-24s %-10s %7s %8s %8s %9s %9s %8s\n",
			"case", "method", "window", "IPS", "steady", "lat(ms)", "p95(ms)", "speedup")
		lastSeries := ""
		for _, r := range rows {
			series := r.Case + "/" + r.Method
			if series != lastSeries && lastSeries != "" {
				fmt.Fprintln(w)
			}
			lastSeries = series
			fmt.Fprintf(w, "%-24s %-10s %7d %8.2f %8.2f %9.1f %9.1f %7.2fx\n",
				r.Case, r.Method, r.Window, r.IPS, r.SteadyIPS, r.MeanLatMS, r.P95LatMS, r.SpeedupVsSeq)
		}
	default:
		return fmt.Errorf("unknown figure %d", n)
	}
	return nil
}

// planner benchmarks the planner-as-a-service path: the same fleet corpus
// is planned cold (empty cache, full search), re-planned exact (every fleet
// a signature hit) and then neighbour fleets are planned warm (each seeded
// from its nearest cached corpus plan: below -budget full a re-score of the
// seed and OSDS's warm-start candidates, otherwise a search on half the
// episode budget). Each phase is wall-clocked into a plans/sec figure; the
// warm rows also carry a full-budget cold reference so the quality delta
// of warm-starting is visible (score/cold <= 1.00 means the warm plan
// matched or beat the full cold one).
func planner(w io.Writer, b experiments.Budget) error {
	header(w, "Planner — plan-cache service: cold vs exact-hit vs warm-start plans/sec")
	sweep := experiments.NewPlannerSweep(b)

	phase := func(name string, f func() ([]experiments.PlannerRow, error)) ([]experiments.PlannerRow, float64, error) {
		t0 := time.Now()
		rows, err := f()
		if err != nil {
			return nil, 0, fmt.Errorf("%s phase: %w", name, err)
		}
		return rows, time.Since(t0).Seconds(), nil
	}
	coldRows, coldSec, err := phase("cold", sweep.Cold)
	if err != nil {
		return err
	}
	exactRows, exactSec, err := phase("exact", sweep.Exact)
	if err != nil {
		return err
	}
	warmRows, warmSec, err := phase("warm", sweep.Warm)
	if err != nil {
		return err
	}
	if err := sweep.WarmReference(warmRows); err != nil {
		return err
	}

	fmt.Fprintf(w, "%-6s %-24s %-8s %12s %12s %10s\n",
		"phase", "fleet", "outcome", "score(s/img)", "cold(s/img)", "score/cold")
	for _, rows := range [][]experiments.PlannerRow{coldRows, exactRows, warmRows} {
		for _, r := range rows {
			coldCol, ratioCol := "-", "-"
			if r.ColdScore > 0 {
				coldCol = fmt.Sprintf("%.4f", r.ColdScore)
				ratioCol = fmt.Sprintf("%.2f", r.Score/r.ColdScore)
			}
			fmt.Fprintf(w, "%-6s %-24s %-8s %12.4f %12s %10s\n",
				r.Phase, r.Fleet, r.Outcome, r.Score, coldCol, ratioCol)
		}
		fmt.Fprintln(w)
	}
	plansPerSec := func(n int, sec float64) float64 {
		if sec <= 0 {
			return 0
		}
		return float64(n) / sec
	}
	fmt.Fprintf(w, "plans/sec: cold %.1f  exact-hit %.1f (%.0fx cold)  warm %.1f (%.1fx cold)\n",
		plansPerSec(len(coldRows), coldSec),
		plansPerSec(len(exactRows), exactSec), coldSec/exactSec,
		plansPerSec(len(warmRows), warmSec), coldSec/warmSec)
	st := sweep.Stats()
	fmt.Fprintf(w, "cache: %d hit(s), %d miss(es), %d warm hit(s)\n", st.Hits, st.Misses, st.WarmHits)
	return nil
}

// fidelity cross-checks the simulator against the real runtime over a
// {batch} x {codec} x {wire regime} grid: a fixed plan is evaluated with
// sim.Serve (matching batch cap, matching codec wire
// fraction) and deployed with that runtime.Options.Batch over a TCP stack
// carrying that codec. The default plan is the CoEdge baseline
// (profile-guided, no training — planning noise would blur the
// comparison); -objective latency|ips swaps in a planned strategy so the
// objective planners themselves can be validated end-to-end.
//
// In the free regime the wire is localhost and the runtime runs ahead of
// the trace-based prediction (the prediction uses raw bytes: the codec
// cannot change a wire that is not charged). In the trace-shaped regime
// the transport charges the WiFi traces with post-codec byte accounting,
// so quantizing codecs shorten the charged wire exactly as the
// simulator's wire fraction predicts and measured/predicted should
// approach 1. Each shaped cell runs the runtime first and predicts after:
// deflate's wire fraction is data-dependent (statically charged 1), so the
// prediction uses the compression ratio the cell's own codec measured —
// calibrated rows are marked "*".
func fidelity(w io.Writer, b experiments.Budget, batches []int, codecs []string, traceOnly bool, objectiveSpec string, objWindow int, sloMS float64) error {
	header(w, "Fidelity — sim prediction vs runtime measurement, {batch} x {codec} x {wire}")
	// Low-bandwidth links make the prediction transfer-dominated, which is
	// the term the transport choice actually controls; emulated-compute
	// overhead (a couple of ms per sleep at small time scales) then stays
	// in the noise.
	providers, err := distredge.ParseProviders("xavier:10,nano:10,tx2:10,nano:10")
	if err != nil {
		return err
	}
	sys, err := distredge.New("vgg16", providers, distredge.WithSeed(b.Seed))
	if err != nil {
		return err
	}
	var plan *distredge.Plan
	var objective distredge.Objective
	if objectiveSpec == "" {
		plan, err = sys.Baseline("CoEdge")
	} else {
		objective, err = distredge.ParseObjective(objectiveSpec)
		if err != nil {
			return err
		}
		plan, err = sys.Plan(distredge.PlanConfig{
			Effort:          distredge.EffortTiny,
			Objective:       objective,
			ObjectiveWindow: objWindow,
			SLOP95MS:        sloMS,
		})
	}
	if err != nil {
		return err
	}
	// One window for the whole grid, wide enough that every batch cap can
	// actually fill: batching coalesces queued images, so the window must
	// admit at least a batch's worth.
	window := 4
	for _, k := range batches {
		if k > window {
			window = k
		}
	}
	fmt.Fprintf(w, "plan: %s  window: %d\n", plan.Method, window)
	const timeScale, bytesScale = 0.1, 0.001
	const simImages, rtImages = 200, 16
	regimes := []bool{false, true} // shaped?
	if traceOnly {
		regimes = []bool{true}
	}
	fmt.Fprintf(w, "%-7s %6s %-14s %9s %9s | %12s %12s | %9s\n",
		"wire", "batch", "codec", "sim IPS", "lat(ms)", "runtime IPS", "lat(ms)", "meas/pred")
	for _, shaped := range regimes {
		regime := "free"
		if shaped {
			regime = "shaped"
		}
		for _, k := range batches {
			for _, codec := range codecs {
				tr, err := distredge.ParseTransport(codecTransportSpec(codec))
				if err != nil {
					return err
				}
				opts := runtime.Options{
					TimeScale:         timeScale,
					BytesScale:        bytesScale,
					Batch:             k,
					HeartbeatInterval: -1, // charged links must not starve liveness
					Transport:         tr,
				}
				if shaped {
					opts.Transport = sys.ShapedTransportPostCodec(tr, opts)
				}
				cluster, err := sys.Deploy(plan, opts)
				if err != nil {
					return err
				}
				sc := sim.Scenario{Tenants: []sim.TenantSpec{{Images: rtImages}}, Window: window, Batch: k}
				measured, runErr := cluster.Serve(sc)
				cluster.Close()
				if runErr != nil {
					return runErr
				}
				// The prediction charges the codec's post-codec wire
				// fraction only when the runtime's wire does too — and the
				// runtime already ran, so a deflate codec can contribute
				// the compression ratio it measured on this very cell's
				// traffic instead of the static conservative 1.
				sc.Tenants[0].Images = simImages
				calibrated := false
				if shaped {
					if wc, ok := tr.(transport.WireCodec); ok {
						sc.WireFrac, calibrated = transport.CalibratedWireFrac(wc.WireCodec())
					}
				}
				prep, err := sys.Serve(plan, sc)
				if err != nil {
					return err
				}
				label := codec
				if calibrated && transport.WireFrac(mustWireCodec(tr)) != sc.WireFrac {
					label += "*"
				}
				fmt.Fprintf(w, "%-7s %6d %-14s %9.2f %9.1f | %12.2f %12.1f | %9.2f\n",
					regime, k, label, prep.IPS, prep.MeanLatMS, measured.IPS, measured.MeanLatMS, measured.IPS/prep.IPS)
			}
		}
		if !shaped {
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "(runtime numbers in model time: wall clock / %g; * = wire fraction calibrated from the cell's measured deflate ratio)\n", timeScale)
	return nil
}

// mustWireCodec returns the transport's wire codec (the fidelity grid only
// calls it on stacks that have one).
func mustWireCodec(tr transport.Transport) transport.Codec {
	if wc, ok := tr.(transport.WireCodec); ok {
		return wc.WireCodec()
	}
	return transport.Binary()
}

func header(w io.Writer, s string) {
	fmt.Fprintln(w, strings.Repeat("=", len(s)))
	fmt.Fprintln(w, s)
	fmt.Fprintln(w, strings.Repeat("=", len(s)))
}

func printTraces(w io.Writer, rows []experiments.TraceRow) {
	fmt.Fprintf(w, "%-10s %10s %8s %8s %8s %6s\n", "trace", "mean Mbps", "min", "max", "std", "cv")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %10.1f %8.1f %8.1f %8.1f %6.3f\n",
			r.Name, r.MeanMbps, r.MinMbps, r.MaxMbps, r.StdMbps, r.CoefficientVariation)
	}
}

func printMethodRows(w io.Writer, rows []experiments.MethodRow) {
	experiments.SortRows(rows)
	fmt.Fprintf(w, "%-22s %-14s %7s %8s %10s %10s %5s\n",
		"case", "method", "IPS", "lat(ms)", "comp(ms)", "trans(ms)", "vols")
	lastCase := ""
	for _, r := range rows {
		if r.Case != lastCase && lastCase != "" {
			fmt.Fprintln(w)
		}
		lastCase = r.Case
		fmt.Fprintf(w, "%-22s %-14s %7.2f %8.1f %10.1f %10.1f %5d\n",
			r.Case, r.Method, r.IPS, r.MeanLatMS, r.MaxCompMS, r.MaxTransMS, r.Volumes)
	}
}
