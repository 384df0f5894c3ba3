package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"distredge"
	"distredge/internal/gateway"
	"distredge/internal/sim"
)

// Reconciliation tolerances of the traced run: how far the layers' parts
// may be from adding up to the whole before the trace is wrong.
const (
	tolRequest = 0.01 // request = queue wait + submit + overhead
	tolSubmit  = 0.10 // submit = scatter + pipeline + gather
	tolPlan    = 0.10 // cold latency-objective plan = partition.search + splitter.search
)

// reconcile records how far a whole is from the sum of its parts. The two
// checks inside one request's spans (request, submit) compare stamps of the
// same moments, so a miss means the trace paired the wrong things: that
// fails a measuring run. The planner check compares separate calls, and on
// a box whose speed drifts by a quarter within seconds even the fastest of
// five can land 14 % apart; beyond its tolerance it is reported as a
// warning, not as an incorrect run. A smoke run's phases are too short for
// any timing to mean anything; it only records the residuals.
func (r *RunRecord) reconcile(name, parts, whole string, resid, tol float64, samples int, hard bool) {
	r.Info["reconcile."+name] = exact("ratio", resid, samples)
	if math.Abs(resid) <= tol || r.smoke {
		return
	}
	msg := fmt.Sprintf("trace: %s is %.1f %% off %s (tolerance %.0f %%)", parts, 100*resid, whole, 100*tol)
	if hard {
		r.violate(msg)
	} else {
		r.Warnings = append(r.Warnings, msg)
	}
}

// maxSpanRequests bounds the span file: the spans of the first this many
// traced requests are written, enough to read any one request's life
// without the file growing with the run length.
const maxSpanRequests = 5000

// outDir is where span files go; the suite's result file goes there too.
var outDir = filepath.Join("benchmark", "out")

// span is one record of the span file.
type span struct {
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: a root
	Request int    `json:"request"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func writeSpans(name string, spans []span) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(outDir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// windowIPS returns completed images per second for each window of a load.
func windowIPS(lr *loadResult) []float64 {
	ips := lr.completed()
	for w := range ips {
		ips[w] /= float64(lr.windowNS) / 1e9
	}
	return ips
}

// runServingTraced measures the per-layer metrics: two windows on an
// untraced deployment for reference, then two on a deployment with the
// wrappers in place. The ratio of the two throughputs is the tracing
// overhead.
func runServingTraced(w *servingWorkload, cfg runConfig) (*RunRecord, error) {
	rec := newRunRecord(w.name, cfg)
	ref, err := deploy(w, cfg, false)
	if err != nil {
		return nil, err
	}
	refLoad := ref.load(cfg, tracedWindows)
	rec.violate(ref.checkServing(&refLoad, ref.gw.Summary())...)
	ref.close()
	refIPS := median(windowIPS(&refLoad))

	d, err := deploy(w, cfg, true)
	if err != nil {
		return nil, err
	}
	lr := d.load(cfg, tracedWindows)
	outstanding := d.quiesce()
	sum := d.gw.Summary()
	rec.violate(d.checkServing(&lr, sum)...)
	final := d.sample()
	closeMS := d.close()
	if outstanding != 0 {
		rec.violate(fmt.Sprintf("transport.pool_outstanding = %d at quiescence, want 0", outstanding))
	}
	for _, r := range lr.recs {
		if r.done >= lr.t0 {
			rec.Attempted++
			if r.outcome != outOK {
				rec.Failed++
			}
		}
	}

	m := rec.Metrics
	m["runtime.deploy_ms"] = exact("ms", d.deployMS, 1)
	m["runtime.close_ms"] = exact("ms", closeMS, 1)
	m["transport.pool_outstanding"] = exact("count", float64(outstanding), 1)
	tracedIPS := median(windowIPS(&lr))
	if tracedIPS > 0 {
		m["benchmark.trace_overhead"] = exact("ratio", refIPS/tracedIPS-1, lr.windows)
	}
	// CPU per image is the process's own, so it is read where no wrapper
	// adds to it: on the reference deployment.
	m["process.cpu_ms_per_op"] = betterQuartile("ms", refLoad.cpuPerOp(), refLoad.served(), "lower")
	rec.Info["images_per_sec_untraced"] = exact("img/s", refIPS, lr.windows)
	rec.Info["images_per_sec_traced"] = exact("img/s", tracedIPS, lr.windows)

	spans := gatewayLayers(rec, d, &lr, sum)
	spans = append(spans, runtimeLayers(rec, d, &lr, final, len(spans))...)
	transportLayers(rec, d, &lr)

	if w.shaped {
		rep, err := d.sys.EvaluatePipelinedOpts(d.plan, 200, w.window, d.opts.Batch, 1)
		if err != nil {
			return nil, err
		}
		predicted := rep.SteadyIPS / w.timeScale
		m["sim.predicted_ips"] = exact("img/s", predicted, 200)
		m["sim.measured_over_predicted"] = exact("ratio", tracedIPS/predicted, lr.windows)
	}
	obj, err := distredge.RuntimeObjective(commonPlanConfig(cfg.effort()))
	if err != nil {
		return nil, err
	}
	if _, err := probePlannerLayers(rec, commonEnv, obj, cfg); err != nil {
		return nil, err
	}
	if err := writeSpans(fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, cfg.seed), spans); err != nil {
		return nil, err
	}
	return rec, nil
}

// perWindow collects one value list per window.
type perWindow [][]float64

func newPerWindow(n int) perWindow { return make(perWindow, n) }

func (p perWindow) add(w int, v float64) {
	if w >= 0 {
		p[w] = append(p[w], v)
	}
}

// gatewayLayers pairs every request that reached the backend with its
// Backend.Submit span and splits the request's time into queue wait
// (Enqueue to Submit entry), submit, and overhead (Submit exit to the
// Result on the caller's channel).
//
// Backend.Submit carries no request identity, so the pairing goes through
// time: the gateway stamps Result.LatencyMS the moment Submit returns, so
// enqueue + LatencyMS is that Submit's exit time to within the Enqueue
// call's own duration. Sorting requests by that estimate and spans by their
// exit pairs them; the reconciliation check fails if any pair disagrees.
func gatewayLayers(rec *RunRecord, d *deployment, lr *loadResult, sum []gateway.TenantSummary) []span {
	type target struct {
		r  *reqRec
		at int64
	}
	var reached []target
	for i := range lr.recs {
		if r := &lr.recs[i]; r.gwLatMS > 0 {
			reached = append(reached, target{r, (r.enq0+r.enq1)/2 + int64(r.gwLatMS*1e6)})
		}
	}
	sort.Slice(reached, func(i, j int) bool { return reached[i].at < reached[j].at })
	submits := d.backend.snapshot()
	sort.Slice(submits, func(i, j int) bool { return submits[i].end < submits[j].end })
	if len(reached) != len(submits) {
		rec.violate(fmt.Sprintf("trace: %d requests reached the backend but %d Submit spans were recorded", len(reached), len(submits)))
		return nil
	}

	n := lr.windows
	wait, lightWait, submit, overhead := newPerWindow(n), newPerWindow(n), newPerWindow(n), newPerWindow(n)
	inflight := make([]float64, n)
	var whole, parts, worstPair float64
	var spans []span
	for i, t := range reached {
		r, s := t.r, submits[i]
		w := lr.window(r.done)
		qw, sb, oh := float64(s.start-r.enq0), float64(s.end-s.start), float64(r.done-s.end)
		wait.add(w, qw/1e6)
		if d.tenants[r.tenant].Name != heavyTenant {
			lightWait.add(w, qw/1e6)
		}
		submit.add(w, sb/1e6)
		overhead.add(w, oh/1e3)
		if w >= 0 {
			whole += float64(r.done - r.enq0)
			parts += math.Max(qw, 0) + sb + math.Max(oh, 0)
			worstPair = math.Max(worstPair, math.Abs(float64(t.at-s.end)))
		}
		for k := 0; k < n; k++ {
			lo, hi := lr.t0+int64(k)*lr.windowNS, lr.t0+int64(k+1)*lr.windowNS
			if a, b := max(s.start, lo), min(s.end, hi); b > a {
				inflight[k] += float64(b-a) / float64(lr.windowNS)
			}
		}
		if i < maxSpanRequests {
			id := 4*i + 1
			spans = append(spans,
				span{Name: "request", ID: id, Request: i, StartNS: r.enq0, EndNS: r.done},
				span{Name: "gateway.queue_wait", ID: id + 1, Parent: id, Request: i, StartNS: r.enq0, EndNS: s.start},
				span{Name: "runtime.submit", ID: id + 2, Parent: id, Request: i, StartNS: s.start, EndNS: s.end},
				span{Name: "gateway.overhead", ID: id + 3, Parent: id, Request: i, StartNS: s.end, EndNS: r.done})
		}
	}
	m := rec.Metrics
	m["gateway.queue_wait_ms_p50"] = windowPercentile("ms", wait, 0.50)
	m["gateway.queue_wait_ms_p95"] = windowPercentile("ms", wait, 0.95)
	m["gateway.light_queue_wait_ms_p95"] = windowPercentile("ms", lightWait, 0.95)
	m["gateway.overhead_us_p50"] = windowPercentile("us", overhead, 0.50)
	m["gateway.inflight_mean"] = overWindows("count", inflight, len(reached))
	m["runtime.submit_ms_p50"] = windowPercentile("ms", submit, 0.50)
	m["runtime.submit_ms_p95"] = windowPercentile("ms", submit, 0.95)
	var expired, late, failed int
	for _, s := range sum {
		expired, late, failed = expired+s.Expired, late+s.Late, failed+s.Failed
	}
	m["gateway.expired"] = exact("count", float64(expired), len(lr.recs))
	m["gateway.late"] = exact("count", float64(late), len(lr.recs))
	m["gateway.failed"] = exact("count", float64(failed), len(lr.recs))

	if whole > 0 {
		rec.Info["trace.pairing_error_us_max"] = exact("us", worstPair/1e3, len(reached))
		rec.reconcile("request", "queue wait + submit + overhead", "the request time", parts/whole-1, tolRequest, len(reached), true)
	}
	if d.w.open {
		late := make([]float64, 0, len(lr.recs))
		for _, r := range lr.recs {
			if r.done >= lr.t0 {
				late = append(late, float64(r.enq0-r.due)/1e6)
			}
		}
		sort.Float64s(late)
		m["benchmark.gen_late_ms_p95"] = exact("ms", percentile(late, 0.95), len(late))
	}
	return spans
}

// runtimeLayers reports what the requester's connections and the providers'
// own counters show of the runtime: each image's scatter, pipeline and
// gather times, the bottleneck provider's busy share, batching, and the
// exact per-image step and chunk counts.
func runtimeLayers(rec *RunRecord, d *deployment, lr *loadResult, final boundary, nextID int) []span {
	n := lr.windows
	images := d.rec.imageSnapshot()
	sort.Slice(images, func(i, j int) bool { return images[i].resultLast < images[j].resultLast })
	scatter, pipeline, gather := newPerWindow(n), newPerWindow(n), newPerWindow(n)
	var imageNS float64
	imageCount := 0
	var spans []span
	for i, it := range images {
		if it.resultLast == 0 {
			continue // scattered, never answered (only on a failed run)
		}
		w := lr.window(it.resultLast)
		scatter.add(w, float64(it.scatterEnd-it.scatterStart)/1e6)
		pipeline.add(w, float64(it.resultFirst-it.scatterEnd)/1e6)
		gather.add(w, float64(it.resultLast-it.resultFirst)/1e6)
		if w >= 0 {
			imageNS += float64(it.resultLast - it.scatterStart)
			imageCount++
		}
		if i < maxSpanRequests {
			// Images complete in the order their Submit calls return, so the
			// i-th image by last result is the i-th request's submit span.
			id, parent := nextID+3*i+1, 4*i+3
			spans = append(spans,
				span{Name: "runtime.scatter", ID: id, Parent: parent, Request: i, StartNS: it.scatterStart, EndNS: it.scatterEnd},
				span{Name: "runtime.pipeline", ID: id + 1, Parent: parent, Request: i, StartNS: it.scatterEnd, EndNS: it.resultFirst},
				span{Name: "runtime.gather", ID: id + 2, Parent: parent, Request: i, StartNS: it.resultFirst, EndNS: it.resultLast})
		}
	}
	m := rec.Metrics
	m["runtime.scatter_ms_p50"] = windowPercentile("ms", scatter, 0.50)
	m["runtime.pipeline_ms_p50"] = windowPercentile("ms", pipeline, 0.50)
	m["runtime.gather_ms_p50"] = windowPercentile("ms", gather, 0.50)

	var submitNS float64
	submitCount := 0
	for _, s := range d.backend.snapshot() {
		if lr.window(s.end) >= 0 {
			submitNS += float64(s.end - s.start)
			submitCount++
		}
	}
	if imageCount > 0 && submitCount > 0 {
		resid := (imageNS/float64(imageCount))/(submitNS/float64(submitCount)) - 1
		rec.reconcile("submit", "scatter + pipeline + gather", "the submit time", resid, tolSubmit, imageCount, true)
	}

	busy := make([]float64, n)
	for w := 0; w < n; w++ {
		for i := range lr.bounds[w].providers {
			share := (lr.bounds[w+1].providers[i].ComputeSec - lr.bounds[w].providers[i].ComputeSec) / (float64(lr.windowNS) / 1e9)
			busy[w] = math.Max(busy[w], share)
		}
	}
	m["runtime.bottleneck_busy_share"] = overWindows("fraction", busy, n)

	served := lr.served()
	var steps, invocations, chunks, maxBatch int
	for _, ps := range final.providers {
		steps, invocations, chunks = steps+ps.StepsExecuted, invocations+ps.Invocations, chunks+ps.ChunksReceived
		maxBatch = max(maxBatch, ps.MaxBatch)
	}
	if invocations > 0 {
		m["runtime.batch_mean"] = exact("count", float64(steps)/float64(invocations), invocations)
	}
	m["runtime.max_batch"] = exact("count", float64(maxBatch), invocations)
	if served > 0 {
		m["runtime.steps_per_image"] = exact("count", float64(steps)/float64(served), served)
		m["runtime.chunks_per_image"] = exact("count", float64(chunks)/float64(served), served)
	}
	return spans
}

// transportLayers reports what the transport decorators counted. The
// per-image counts are totals at quiescence over every image the
// deployment served, warm-up included, so they are exact.
func transportLayers(rec *RunRecord, d *deployment, lr *loadResult) {
	wr, n, served := d.rec, lr.windows, lr.served()
	m := rec.Metrics
	msgs := float64(wr.msgs.Load())
	if served > 0 {
		m["transport.msgs_per_image"] = exact("count", msgs/float64(served), served)
		m["transport.payload_kb_per_image"] = exact("KB", float64(wr.payloadBytes.Load())/1e3/float64(served), served)
		m["transport.pool_gets_per_image"] = exact("count", float64(wr.poolGets.Load())/float64(served), served)
	}
	if msgs > 0 {
		m["transport.flushes_per_msg"] = exact("ratio", float64(wr.flushes.Load())/msgs, int(msgs))
	}
	m["transport.dials"] = exact("count", float64(wr.dials.Load()), 1)

	p50, p95 := make([]float64, n), make([]float64, n)
	busy, linkWait := make([]float64, n), make([]float64, n)
	samples := 0
	for w := 0; w < n; w++ {
		a, b := lr.bounds[w], lr.bounds[w+1]
		var k int
		p50[w], k = histQuantile(a.hist, b.hist, 0.50)
		p95[w], _ = histQuantile(a.hist, b.hist, 0.95)
		samples += k
		busy[w] = float64(b.sendNS-a.sendNS) / float64(lr.windowNS)
		if d.w.shaped {
			linkWait[w] = float64((b.outerNS-a.outerNS)-(b.sendNS-a.sendNS)) / float64(lr.windowNS)
		}
		p50[w], p95[w] = p50[w]/1e3, p95[w]/1e3
	}
	m["transport.send_us_p50"] = overWindows("us", p50, samples)
	m["transport.send_us_p95"] = overWindows("us", p95, samples)
	m["transport.send_busy_share"] = overWindows("fraction", busy, samples)
	m["transport.link_wait_share"] = overWindows("fraction", linkWait, samples)
}

// runPlanMixTraced measures the planning layers: one untraced pass for
// reference, then one pass through the same plan-cache service with the
// planner wrapped, then the planner's layers timed one call at a time on
// the corpus's first fleet (latency objective), beside that fleet's whole
// cold plan.
func runPlanMixTraced(cfg runConfig) (*RunRecord, error) {
	rec := newRunRecord(wlPlanMix, cfg)
	corpus := buildCorpus(cfg.seed)
	want := corpus.expectedOutcomes()
	if err := planWarmUp(corpus, cfg); err != nil {
		return nil, err
	}
	ref, err := corpus.runPass(plannerSeed, cfg.effort())
	if err != nil {
		return nil, err
	}
	rec.violate(corpus.verify(ref, want)...)
	p, err := corpus.runTracedPass(plannerSeed, cfg.effort())
	if err != nil {
		return nil, err
	}
	rec.violate(corpus.verify(p, want)...)
	rec.Attempted = 2 * corpusLen

	var cold, warm, service, hit []float64
	call := 0
	for i := range corpus.Sequence {
		reqMS := float64(p.reqNS[i]) / 1e6
		if p.outcomes[i] == distredge.PlanHit {
			hit = append(hit, reqMS*1e3)
			continue
		}
		if call >= len(p.calls) {
			rec.violate(fmt.Sprintf("trace: %d misses but only %d planner calls were recorded", call+1, len(p.calls)))
			break
		}
		c := p.calls[call]
		call++
		innerMS := float64(c.ns) / 1e6
		service = append(service, (reqMS-innerMS)*1e3)
		if c.warm != (p.outcomes[i] == distredge.PlanWarm) {
			rec.violate(fmt.Sprintf("trace: request %d was served %s but its planner call had warm=%v", i, p.outcomes[i], c.warm))
		}
		if c.warm {
			warm = append(warm, innerMS)
			continue
		}
		cold = append(cold, innerMS)
	}
	for _, xs := range [][]float64{cold, warm, service, hit} {
		sort.Float64s(xs)
	}
	m := rec.Metrics
	m["experiments.plan_cold_ms_p50"] = exact("ms", percentile(cold, 0.5), len(cold))
	m["experiments.plan_warm_ms_p50"] = exact("ms", percentile(warm, 0.5), len(warm))
	m["plancache.service_overhead_us_p50"] = exact("us", percentile(service, 0.5), len(service))
	m["plancache.hit_us_p50"] = exact("us", percentile(hit, 0.5), len(hit))
	m["plancache.hit_share"] = exact("fraction", float64(len(hit))/corpusLen, corpusLen)
	m["plancache.warm_share"] = exact("fraction", float64(len(warm))/corpusLen, corpusLen)
	m["process.cpu_ms_per_op"] = exact("ms", (ref.after.cpuMS-ref.before.cpuMS)/corpusLen, corpusLen)
	m["benchmark.trace_overhead"] = exact("ratio", float64(p.wallNS)/float64(ref.wallNS)-1, 1)
	rec.Info["plans_per_sec_untraced"] = exact("plans/s", corpusLen/(float64(ref.wallNS)/1e9), corpusLen)
	rec.Info["plans_per_sec_traced"] = exact("plans/s", corpusLen/(float64(p.wallNS)/1e9), corpusLen)

	spec := corpus.Fleets[0] // vgg16 under the latency objective
	newEnv := func() (*sim.Env, error) { return mirrorEnv(spec.Model, spec.Providers, plannerSeed) }
	resid, err := probePlannerLayers(rec, newEnv, nil, cfg)
	if err != nil {
		return nil, err
	}
	rec.reconcile("plan_cold", "partition.search + splitter.search", "the cold plan of "+spec.Name, resid, tolPlan, 5, false)
	return rec, nil
}
