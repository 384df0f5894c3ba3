package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"

	"distredge"
	"distredge/internal/gateway"
)

// RunRecord is the full result of one run of one workload: what the driver
// contract's last line summarises and what the suite's result file keeps.
type RunRecord struct {
	Workload   string          `json:"workload"`
	Seed       int64           `json:"seed"`
	Traced     bool            `json:"traced"`
	WindowSec  float64         `json:"window_sec"`
	Correct    bool            `json:"correct"`
	Violations []string        `json:"violations,omitempty"`
	Warnings   []string        `json:"warnings,omitempty"`
	Attempted  int             `json:"attempted"`
	Failed     int             `json:"failed"`
	Metrics    map[string]Stat `json:"metrics"`
	// Info holds numbers that are printed but not gated: latency_p99_ms,
	// failed_share, the reconciliation residuals, sample counts.
	Info map[string]Stat `json:"info,omitempty"`

	smoke bool
}

func newRunRecord(workload string, cfg runConfig) *RunRecord {
	return &RunRecord{
		Workload: workload, Seed: cfg.seed, Traced: cfg.traced,
		WindowSec: float64(cfg.windowNS()) / 1e9, Correct: true, smoke: cfg.smoke,
		Metrics: make(map[string]Stat), Info: make(map[string]Stat),
	}
}

func (r *RunRecord) violate(msgs ...string) {
	if len(msgs) > 0 {
		r.Correct = false
		r.Violations = append(r.Violations, msgs...)
	}
}

// runServing runs one serving workload, untraced or traced.
func runServing(w *servingWorkload, cfg runConfig) (*RunRecord, error) {
	if cfg.traced {
		return runServingTraced(w, cfg)
	}
	rec := newRunRecord(w.name, cfg)
	reps := setupRepeats
	if cfg.smoke {
		reps = 1
	}
	// Set-up is repeated and its median reported: plan, deploy, warm up.
	// All but the last deployment are torn down again after their warm-up,
	// and their garbage collected, so that every repetition starts from the
	// heap the first one found.
	var setups []float64
	var d *deployment
	var lr loadResult
	for rep := 0; rep < reps; rep++ {
		repStart := now()
		var err error
		if d, err = deploy(w, cfg, false); err != nil {
			return nil, err
		}
		windows := 0
		if rep == reps-1 {
			windows = untracedWindows
		}
		lr = d.load(cfg, windows)
		setups = append(setups, float64(lr.t0-repStart)/1e9)
		rec.violate(d.checkServing(&lr, d.gw.Summary())...)
		d.close()
		runtime.GC()
	}

	rec.Metrics["setup_s"] = overWindows("s", setups, len(setups))
	servingEndToEnd(rec, &lr, d.tenants)
	quality, _, err := planQualityRatio(d.sys, d.plan, distredge.ObjectiveIPS)
	if err != nil {
		return nil, err
	}
	// The planning metrics on a workload that serves: the quality of the
	// plan it serves, and — nothing is planned while serving — its own
	// throughput and median latency under the planning names.
	m := rec.Metrics
	m["plan_quality"] = exact("ratio", quality, 1)
	m["plans_per_sec"] = m["images_per_sec"]
	m["plan_cold_p50_ms"] = m["latency_p50_ms"]
	return rec, nil
}

// servingEndToEnd fills the end-to-end metrics a load phase supports. Every
// timing is computed per window and the windows' better quartile reported.
func servingEndToEnd(rec *RunRecord, lr *loadResult, tenants []gateway.TenantConfig) {
	n := lr.windows
	completed := lr.completed()
	lat := make([][]float64, n)
	light := make([][]float64, n)
	for _, r := range lr.recs {
		if r.done < lr.t0 {
			continue // warm-up
		}
		rec.Attempted++
		if r.outcome != outOK {
			rec.Failed++
		}
		w := lr.window(r.done)
		if w < 0 || !r.served() {
			continue
		}
		ms := float64(r.done-r.due) / 1e6
		lat[w] = append(lat[w], ms)
		if tenants[r.tenant].Name != heavyTenant {
			light[w] = append(light[w], ms)
		}
	}
	winSec := float64(lr.windowNS) / 1e9
	ips := make([]float64, n)
	allocs := make([]float64, n)
	total := 0
	for w := 0; w < n; w++ {
		ops := math.Max(completed[w], 1)
		total += int(completed[w])
		ips[w] = completed[w] / winSec
		allocs[w] = float64(lr.bounds[w+1].mallocs-lr.bounds[w].mallocs) / ops
	}
	m := rec.Metrics
	m["images_per_sec"] = betterQuartile("img/s", ips, total, "higher")
	m["latency_p50_ms"] = windowPercentile("ms", lat, 0.50)
	m["latency_p95_ms"] = windowPercentile("ms", lat, 0.95)
	// The light tenants are half the traffic: their windows are pooled, or
	// a window's p95 would rest on a dozen requests. A single tenant is its
	// own light tenant.
	m["light_latency_p95_ms"] = m["latency_p95_ms"]
	if len(tenants) > 1 {
		m["light_latency_p95_ms"] = pooledPercentile("ms", light, 0.95)
	}
	rec.Info["cpu_ms_per_op"] = betterQuartile("ms", lr.cpuPerOp(), total, "lower")
	m["allocs_per_op"] = overWindows("count", allocs, total)
	m["peak_rss_mb"] = exact("MB", peakRSSMB(), 1)
	rec.Info["latency_p99_ms"] = windowPercentile("ms", lat, 0.99)
	shareMetrics(rec)
}

// shareMetrics derives ok_share (gated; a share that is never 0) and
// failed_share (its complement, printed) from the attempt counts.
func shareMetrics(rec *RunRecord) {
	attempted := math.Max(float64(rec.Attempted), 1)
	failed := float64(rec.Failed) / attempted
	rec.Metrics["ok_share"] = exact("fraction", 1-failed, rec.Attempted)
	rec.Info["failed_share"] = exact("fraction", failed, rec.Attempted)
}

// runPlanMix runs the planning workload. Passes play the part windows play
// on the serving workloads: each pass is the same 60 requests against a
// fresh cache; planMixEndToEnd says how the passes fold into one figure.
func runPlanMix(cfg runConfig) (*RunRecord, error) {
	if cfg.traced {
		return runPlanMixTraced(cfg)
	}
	rec := newRunRecord(wlPlanMix, cfg)
	corpus := buildCorpus(cfg.seed)
	want := corpus.expectedOutcomes()

	// Set-up: build the corpus and warm up for as long as a serving workload
	// does, planning cold, so the heap and the CPU's caches have seen
	// searches before the first timed one.
	reps := setupRepeats
	if cfg.smoke {
		reps = 1
	}
	var setups []float64
	for rep := 0; rep < reps; rep++ {
		repStart := now()
		if err := planWarmUp(corpus, cfg); err != nil {
			return nil, err
		}
		setups = append(setups, float64(now()-repStart)/1e9)
	}
	rec.Metrics["setup_s"] = overWindows("s", setups, len(setups))

	var passes []*planPass
	for start := now(); ; {
		// Only the last pass keeps its plans and systems, for the quality
		// score below: held for every pass they would add 14 MB a pass to
		// the resident set of the passes after it.
		if n := len(passes); n > 0 {
			passes[n-1].plans, passes[n-1].systems = nil, nil
		}
		// Every pass starts from a collected heap whose freed pages are back
		// with the kernel, like its cache starts empty: the resident set a
		// pass reaches is then its own, not the high-water mark of the
		// passes before it.
		debug.FreeOSMemory()
		p, err := corpus.runPass(plannerSeed, cfg.effort())
		if err != nil {
			rec.Attempted += corpusLen
			rec.Failed++
			rec.violate(err.Error())
			break
		}
		rec.Attempted += corpusLen
		rec.violate(corpus.verify(p, want)...)
		passes = append(passes, p)
		enough := len(passes) >= 3 || cfg.smoke
		if enough && float64(now()-start)/1e9 >= cfg.seconds {
			break
		}
	}
	if len(passes) == 0 {
		return rec, nil
	}
	planMixEndToEnd(rec, passes)
	quality, ips, err := corpus.quality(passes[len(passes)-1])
	if err != nil {
		return nil, err
	}
	rec.Metrics["plan_quality"] = exact("ratio", quality, len(corpus.Fleets))
	// No image is served here; images_per_sec reads as the images/sec the
	// simulator predicts for the throughput-objective plans just served.
	rec.Metrics["images_per_sec"] = exact("img/s", ips, len(corpus.Fleets)/2)
	shareMetrics(rec)
	return rec, nil
}

// planWarmUp plans the corpus's first fleet — its cheapest search — cold,
// against an empty cache, again and again until the warm-up time has passed.
func planWarmUp(c planCorpus, cfg runConfig) error {
	f := c.Fleets[0]
	for start := now(); now()-start < cfg.warmNS(); {
		sys, err := distredge.New(f.Model, f.Providers, distredge.WithSeed(plannerSeed))
		if err != nil {
			return err
		}
		if _, _, err = sys.PlanCached(f.planConfig(cfg.effort()), distredge.NewPlanCache(0)); err != nil {
			return err
		}
	}
	return nil
}

// planMixEndToEnd fills the end-to-end metrics of the planning workload.
//
// Every pass plays the same 60 requests, so each request is timed once per
// pass, and its lower quartile over the passes (of three passes, the
// fastest) is what a slow spell of the box leaves alone: a spell shorter
// than a pass slows a few requests of one pass, and those requests take
// their time from the other passes. The timing metrics are computed from
// that one steadied pass rather than from the median whole pass, which a
// spell anywhere inside it spoils — the same reasoning as betterQuartile's,
// applied per request. Min and max are still those of the whole passes.
func planMixEndToEnd(rec *RunRecord, passes []*planPass) {
	n := len(passes)
	pps, cpu, allocs, rss := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	cold, p50, p95, p99 := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	passStats := func(reqMS []float64, outcomes []distredge.PlanOutcome) (coldP50, q50, q95, q99 float64) {
		var all, colds []float64
		for k, ms := range reqMS {
			all = append(all, ms)
			if outcomes[k] == distredge.PlanCold {
				colds = append(colds, ms)
			}
		}
		sort.Float64s(all)
		// Eight cold searches a pass, each a different fleet with its own
		// cost: the interpolating median does not jump between the two
		// middle fleets the way a nearest-rank one does.
		return median(colds), percentile(all, 0.50), percentile(all, 0.95), percentile(all, 0.99)
	}
	for i, p := range passes {
		pps[i] = corpusLen / (float64(p.wallNS) / 1e9)
		cpu[i] = (p.after.cpuMS - p.before.cpuMS) / corpusLen
		allocs[i] = float64(p.after.mallocs-p.before.mallocs) / corpusLen
		rss[i] = p.peakRSS
		cold[i], p50[i], p95[i], p99[i] = passStats(p.reqMS(), p.outcomes)
	}
	// The steadied pass: request k at its lower quartile over the passes.
	reqMS, reqCPU := make([]float64, corpusLen), make([]float64, corpusLen)
	var wallMS, cpuMS float64
	across := make([]float64, n)
	for k := range reqMS {
		for i, p := range passes {
			across[i] = float64(p.reqNS[k]) / 1e6
		}
		reqMS[k], _, _ = quartiles(across)
		for i, p := range passes {
			across[i] = p.reqCPU[k]
		}
		reqCPU[k], _, _ = quartiles(across)
		wallMS += reqMS[k]
		cpuMS += reqCPU[k]
	}
	sCold, s50, s95, s99 := passStats(reqMS, passes[0].outcomes)
	steadied := func(unit string, v float64, perPass []float64, samples int) Stat {
		st := overWindows(unit, perPass, samples)
		st.Value = v
		return st
	}
	ops := n * corpusLen
	m := rec.Metrics
	m["plans_per_sec"] = steadied("plans/s", corpusLen/(wallMS/1e3), pps, ops)
	m["plan_cold_p50_ms"] = steadied("ms", sCold, cold, 8*n)
	// A plan request's latency is PlanCached's duration. With three in five
	// requests a hit, p50 is a hit and p95 a search (the third-slowest).
	m["latency_p50_ms"] = steadied("ms", s50, p50, ops)
	m["latency_p95_ms"] = steadied("ms", s95, p95, ops)
	m["light_latency_p95_ms"] = m["latency_p95_ms"]
	rec.Info["cpu_ms_per_op"] = steadied("ms", cpuMS/corpusLen, cpu, ops)
	m["allocs_per_op"] = overWindows("count", allocs, ops)
	// How far the heap overshoots its live size depends on where in the
	// planner's allocation pattern the collector's cycles happen to fall, and
	// that differs from pass to pass: the median pass's own peak is reported
	// (VmHWM, the maximum over all passes and the warm-up, is printed too).
	m["peak_rss_mb"] = overWindows("MB", rss, n)
	rec.Info["vm_hwm_mb"] = exact("MB", peakRSSMB(), 1)
	rec.Info["latency_p99_ms"] = steadied("ms", s99, p99, ops)
}

// sortedKeys returns a map's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fmtStat(workload, name string, s Stat) string {
	return fmt.Sprintf("%-13s %-36s %14.6g %-9s (min %.6g max %.6g, %d windows, %d samples)",
		workload, name, s.Value, s.Unit, s.Min, s.Max, s.Windows, s.Samples)
}
