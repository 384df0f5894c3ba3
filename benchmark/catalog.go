package main

// metricDef names one metric: its unit, which direction is better, and for
// end-to-end metrics the regression bound — the share of the baseline's
// median by which it may worsen before a change counts as a regression.
// BENCHMARK.json carries the same table; a test keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	// On narrows the bound on single workloads where the metric is
	// steadier than its loosest case; -compare uses it. BENCHMARK.json has
	// one bound per metric and so carries the loosest.
	On map[string]float64
}

func (d metricDef) bound(workload string) float64 {
	if b, ok := d.On[workload]; ok {
		return b
	}
	return d.Bound
}

// endToEnd lists the eleven end-to-end metrics, measured with tracing off.
// Every workload reports every one of them; README.md says what each reads
// as on the workloads where it is not native.
//
// cpu_ms_per_op is not among them. It is printed by every untraced run and
// reported, ungated, as the per-layer metric process.cpu_ms_per_op: on the
// sleep-bound workloads, the only ones where it says something throughput
// does not, whole runs of the same code sit 35 % apart on this shared VM
// (see README.md), and no bound a metric may have holds that.
//
// The bounds are set from the run-to-run spread measured when the benchmark
// was defined (ten runs, ten seeds, quartile distance over median): at
// least three times the spread where 0.25, the most a bound may be, allows.
// Whatever is bound by sleeps or is a count repeats to well under 1 %;
// whatever is bound by the CPU inherits the 2-core VM's own ±8 % drift, and
// wire-small, which keeps both cores busy handing messages across, moves by
// 16 % between runs.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "images_per_sec", Unit: "img/s", Better: "higher", Bound: 0.25, On: map[string]float64{wlPaperShaped: 0.03, wlTenantsOpen: 0.03, wlWireLarge: 0.20, wlPlanMix: 0.03}},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: map[string]float64{wlPaperShaped: 0.03, wlTenantsOpen: 0.08, wlWireLarge: 0.15, wlPlanMix: 0.20}},
	{Name: "latency_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: map[string]float64{wlPaperShaped: 0.05, wlTenantsOpen: 0.20, wlPlanMix: 0.15}},
	{Name: "light_latency_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: map[string]float64{wlPaperShaped: 0.05, wlTenantsOpen: 0.10, wlPlanMix: 0.15}},
	{Name: "ok_share", Unit: "fraction", Better: "higher", Bound: 0.02, On: map[string]float64{wlPaperShaped: 0.005, wlWireSmall: 0.005, wlWireLarge: 0.005, wlPlanMix: 0.005}},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.15, On: map[string]float64{wlPaperShaped: 0.03, wlWireSmall: 0.03, wlTenantsOpen: 0.03, wlPlanMix: 0.03}},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25, On: map[string]float64{wlPaperShaped: 0.10, wlTenantsOpen: 0.10, wlPlanMix: 0.10}},
	{Name: "plans_per_sec", Unit: "plans/s", Better: "higher", Bound: 0.25, On: map[string]float64{wlPlanMix: 0.15}},
	{Name: "plan_cold_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: map[string]float64{wlPlanMix: 0.15}},
	{Name: "plan_quality", Unit: "ratio", Better: "higher", Bound: 0.01},
}

// perLayer lists the per-layer metrics of the traced run, layer = module
// name. They carry no bound: they explain an end-to-end movement, they do
// not gate one. A metric a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{Name: "gateway.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "gateway.queue_wait_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "gateway.light_queue_wait_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "gateway.overhead_us_p50", Unit: "us", Better: "lower"},
	{Name: "gateway.inflight_mean", Unit: "count", Better: "higher"},
	{Name: "gateway.expired", Unit: "count", Better: "lower"},
	{Name: "gateway.late", Unit: "count", Better: "lower"},
	{Name: "gateway.failed", Unit: "count", Better: "lower"},
	{Name: "runtime.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "runtime.submit_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "runtime.scatter_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "runtime.pipeline_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "runtime.gather_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "runtime.bottleneck_busy_share", Unit: "fraction", Better: "higher"},
	{Name: "runtime.batch_mean", Unit: "count", Better: "higher"},
	{Name: "runtime.max_batch", Unit: "count", Better: "higher"},
	{Name: "runtime.steps_per_image", Unit: "count", Better: "lower"},
	{Name: "runtime.chunks_per_image", Unit: "count", Better: "lower"},
	{Name: "runtime.deploy_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.close_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.msgs_per_image", Unit: "count", Better: "lower"},
	{Name: "transport.payload_kb_per_image", Unit: "KB", Better: "lower"},
	{Name: "transport.flushes_per_msg", Unit: "ratio", Better: "lower"},
	{Name: "transport.send_us_p50", Unit: "us", Better: "lower"},
	{Name: "transport.send_us_p95", Unit: "us", Better: "lower"},
	{Name: "transport.send_busy_share", Unit: "fraction", Better: "lower"},
	{Name: "transport.link_wait_share", Unit: "fraction", Better: "lower"},
	{Name: "transport.pool_gets_per_image", Unit: "count", Better: "lower"},
	{Name: "transport.pool_outstanding", Unit: "count", Better: "lower"},
	{Name: "transport.dials", Unit: "count", Better: "lower"},
	{Name: "sim.predicted_ips", Unit: "img/s", Better: "higher"},
	{Name: "sim.measured_over_predicted", Unit: "ratio", Better: "higher"},
	{Name: "sim.latency_eval_us_p50", Unit: "us", Better: "lower"},
	{Name: "sim.pipeline_eval_us_p50", Unit: "us", Better: "lower"},
	{Name: "partition.search_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "splitter.search_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "splitter.episode_us", Unit: "us", Better: "lower"},
	{Name: "rl.update_us_p50", Unit: "us", Better: "lower"},
	{Name: "experiments.plan_cold_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "experiments.plan_warm_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "plancache.service_overhead_us_p50", Unit: "us", Better: "lower"},
	{Name: "plancache.hit_us_p50", Unit: "us", Better: "lower"},
	{Name: "plancache.signature_us_p50", Unit: "us", Better: "lower"},
	{Name: "plancache.hit_share", Unit: "fraction", Better: "higher"},
	{Name: "plancache.warm_share", Unit: "fraction", Better: "higher"},
	{Name: "device.cache_hit_share", Unit: "fraction", Better: "higher"},
	{Name: "process.cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "benchmark.gen_late_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "benchmark.trace_overhead", Unit: "ratio", Better: "lower"},
}

// workloadWhy is why each workload exists, in one line.
var workloadWhy = map[string]string{
	wlPaperShaped: "closed loop, window 4, planner's plan over trace-shaped links: plan quality, pipelining and batching show; wire hot-path work must not",
	wlWireSmall:   "closed loop, window 8, layer-by-layer CoEdge plan over free tcp, ~86 small messages per image: per-message runtime and transport cost dominates",
	wlWireLarge:   "closed loop, window 8, one whole volume per provider over free tcp, ~3.1 MB per image in 5 messages: bytes, copies, pool and codec dominate",
	wlTenantsOpen: "open loop at a fixed 93 req/s through the WFQ gateway, one bursty heavy tenant and 15 light ones: the only workload with a queue",
	wlPlanMix:     "closed loop, one caller, 60 PlanCached requests per pass (8 cold, 16 warm, 36 hits): the planner, the plan cache and the simulator",
}
