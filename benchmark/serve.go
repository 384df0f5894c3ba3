package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"distredge"
	"distredge/internal/gateway"
	"distredge/internal/runtime"
	"distredge/internal/transport"
)

// runConfig is what one run of one workload is asked to do.
type runConfig struct {
	seed    int64
	seconds float64 // the untraced measured phase: five windows of seconds/5
	traced  bool
	smoke   bool // tiny budgets, for the tests
}

const (
	untracedWindows = 5
	tracedWindows   = 2 // per side: two untraced reference windows, two traced
	setupRepeats    = 3
	// slicesPerWindow splits every window in three for the CPU reading.
	slicesPerWindow = 3
)

func (c runConfig) effort() distredge.Effort {
	if c.smoke {
		return distredge.EffortTiny
	}
	return distredge.EffortQuick
}

func (c runConfig) windowNS() int64 { return int64(c.seconds / untracedWindows * float64(time.Second)) }

// warmNS is the warm-up every deployment serves before anything is
// measured: long enough for lazy dials, payload pools and the heap to
// settle (at least 50 images on every workload).
func (c runConfig) warmNS() int64 {
	if c.smoke {
		return int64(50 * time.Millisecond)
	}
	return int64(time.Second)
}

// deployment is one planned, deployed and fronted fleet.
type deployment struct {
	w       *servingWorkload
	sys     *distredge.System
	plan    *distredge.Plan
	opts    runtime.Options
	cluster *runtime.Cluster
	gw      *gateway.Gateway
	tenants []gateway.TenantConfig

	// Traced deployments only.
	rec     *wireRec
	backend *tracedBackend

	deployMS float64
}

// deploy plans the workload's strategy and brings the fleet up behind a
// gateway. A traced deployment differs only in the wrappers on the seams.
func deploy(w *servingWorkload, cfg runConfig, traced bool) (*deployment, error) {
	provs, err := distredge.ParseProviders(commonFleet)
	if err != nil {
		return nil, err
	}
	d := &deployment{w: w, tenants: w.tenants()}
	if d.sys, err = distredge.New(commonModel, provs, distredge.WithSeed(plannerSeed)); err != nil {
		return nil, err
	}
	if d.plan, err = w.plan(d.sys, cfg.effort()); err != nil {
		return nil, fmt.Errorf("%s: plan: %w", w.name, err)
	}
	d.opts = runtime.Options{TimeScale: w.timeScale, BytesScale: w.bytesScale}
	wire, err := distredge.ParseTransport("tcp")
	if err != nil {
		return nil, err
	}
	if traced {
		d.rec = newWireRec()
		wire = &tracedTransport{inner: wire, rec: d.rec, counts: true, timeline: !w.shaped}
	}
	if w.shaped {
		wire = d.sys.ShapedTransportPostCodec(wire, d.opts)
		if traced {
			wire = &tracedTransport{inner: wire, rec: d.rec, timeline: true}
		}
	}
	d.opts.Transport = wire
	t0 := now()
	if d.cluster, err = d.sys.Deploy(d.plan, d.opts); err != nil {
		return nil, fmt.Errorf("%s: deploy: %w", w.name, err)
	}
	d.deployMS = float64(now()-t0) / 1e6
	var be gateway.Backend = d.cluster
	if traced {
		d.backend = &tracedBackend{inner: d.cluster}
		be = d.backend
	}
	d.gw, err = gateway.New(be, gateway.Config{Window: w.window, Policy: w.policy}, d.tenants)
	if err != nil {
		d.cluster.Close()
		return nil, err
	}
	return d, nil
}

// close tears the deployment down and returns how long the cluster took.
func (d *deployment) close() (closeMS float64) {
	d.gw.Close()
	t0 := now()
	d.cluster.Close()
	return float64(now()-t0) / 1e6
}

// Request outcomes, as the caller sees them.
const (
	outOK      = iota
	outLate    // served, past its deadline
	outExpired // dropped from the queue at its deadline, never served
	outFailed  // backend error or refused
)

// reqRec is one request's life as the load generator and collector saw it.
type reqRec struct {
	tenant     int
	outcome    int
	due        int64   // when it was due to be sent (enq0 on closed loops)
	enq0, enq1 int64   // around the Enqueue call
	done       int64   // Result received on the caller's channel
	gwLatMS    float64 // Result.LatencyMS: the gateway's own enqueue-to-completion time
}

func (r *reqRec) served() bool { return r.outcome == outOK || r.outcome == outLate }

func classify(res gateway.Result) int {
	switch {
	case res.Err == nil:
		return outOK
	case errors.Is(res.Err, gateway.ErrDeadlineExceeded) && res.LatencyMS > 0:
		return outLate
	case errors.Is(res.Err, gateway.ErrDeadlineExceeded):
		return outExpired
	default:
		return outFailed
	}
}

// boundary is one reading of every cumulative counter, taken at a window
// boundary.
type boundary struct {
	usage
	providers []runtime.ProviderStats
	sendNS    int64
	outerNS   int64
	hist      []uint64
}

func (d *deployment) sample() boundary {
	b := boundary{usage: readUsage(), providers: d.cluster.Stats()}
	if d.rec != nil {
		b.sendNS, b.outerNS = d.rec.sendNS.Load(), d.rec.outerSendNS.Load()
		b.hist = d.rec.sendHist.snapshot()
	}
	return b
}

// loadResult is everything one load phase observed.
type loadResult struct {
	recs     []reqRec
	t0       int64 // first measured instant: load start + warm-up
	windowNS int64
	windows  int
	bounds   []boundary // windows+1 readings, at t0 + i*windowNS
	// slices are the readings at every third of a window, the window
	// boundaries among them: CPU time is looked at that much more finely.
	slices   []usage
	lastDue  int64
	lastDone int64
}

func (lr *loadResult) end() int64 { return lr.t0 + int64(lr.windows)*lr.windowNS }

// served counts the requests of the whole load, warm-up included, that the
// backend completed.
func (lr *loadResult) served() int {
	n := 0
	for i := range lr.recs {
		if lr.recs[i].served() {
			n++
		}
	}
	return n
}

// completed counts, per measured window, the requests the backend completed.
func (lr *loadResult) completed() []float64 {
	out := make([]float64, lr.windows)
	for i := range lr.recs {
		if w := lr.window(lr.recs[i].done); w >= 0 && lr.recs[i].served() {
			out[w]++
		}
	}
	return out
}

// cpuPerOp returns, per slice of the measured phase, the process's CPU time
// over the requests the backend completed in the slice.
func (lr *loadResult) cpuPerOp() []float64 {
	n := len(lr.slices) - 1
	if n < 1 {
		return nil
	}
	ops := make([]float64, n)
	sliceNS := lr.windowNS / slicesPerWindow
	for i := range lr.recs {
		if r := &lr.recs[i]; r.served() && r.done >= lr.t0 {
			if k := int((r.done - lr.t0) / sliceNS); k < n {
				ops[k]++
			}
		}
	}
	out := make([]float64, n)
	for k := range out {
		out[k] = (lr.slices[k+1].cpuMS - lr.slices[k].cpuMS) / max(ops[k], 1)
	}
	return out
}

// window returns the measured window a timestamp falls in, or -1.
func (lr *loadResult) window(t int64) int {
	if t < lr.t0 || t >= lr.end() {
		return -1
	}
	return int((t - lr.t0) / lr.windowNS)
}

// request sends one request and waits for its Result on the caller's
// channel. due is when it was due to be sent; 0 means now.
func (d *deployment) request(tenant int, due int64) reqRec {
	r := reqRec{tenant: tenant, due: due, enq0: now()}
	if due == 0 {
		r.due = r.enq0
	}
	ch, err := d.gw.Enqueue(d.tenants[tenant].Name)
	r.enq1 = now()
	if err != nil {
		r.outcome, r.done = outFailed, r.enq1
		return r
	}
	res := <-ch
	r.done = now()
	r.outcome, r.gwLatMS = classify(res), res.LatencyMS
	return r
}

// load drives the deployment through a warm-up and `windows` measured
// windows and returns when every request has its Result. A sampler reads
// the cumulative counters at each window boundary.
//
// A closed loop is `window` clients, each sending its next request when the
// previous one's Result arrives, so exactly that many requests are
// outstanding. (Each client waits on its own request. One collector taking
// Results in enqueue order would hold back a finished request's slot behind
// an unfinished earlier one and release the two together; the pair is then
// admitted together, the race for the scatter lock can finish them out of
// order again, and the loop settles into bunches that run 15 % slower than
// the evenly spaced arrangement for seconds at a time.)
//
// The open loop is one generator walking the schedule; each request gets
// its own waiter, so a Result is stamped when it arrives whatever became of
// the requests sent before it.
func (d *deployment) load(cfg runConfig, windows int) loadResult {
	lr := loadResult{windowNS: cfg.windowNS(), windows: windows}
	warm := cfg.warmNS()
	start := now()
	lr.t0 = start + warm
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for i := 0; i <= windows*slicesPerWindow; i++ {
			time.Sleep(time.Duration(lr.t0 + int64(i)*lr.windowNS/slicesPerWindow - now()))
			b := d.sample()
			lr.slices = append(lr.slices, b.usage)
			if i%slicesPerWindow == 0 {
				lr.bounds = append(lr.bounds, b)
			}
		}
	}()

	var clients sync.WaitGroup
	if d.w.open {
		schedule := openSchedule(cfg.seed, warm, lr.windowNS, windows)
		lr.recs = make([]reqRec, len(schedule))
		for i, a := range schedule {
			due := start + a.due
			if wait := due - now(); wait > 0 {
				time.Sleep(time.Duration(wait))
			}
			clients.Add(1)
			go func(i, tenant int) {
				defer clients.Done()
				lr.recs[i] = d.request(tenant, due)
			}(i, a.tenant)
		}
	} else {
		perClient := make([][]reqRec, d.w.window)
		stop := lr.end()
		for c := range perClient {
			clients.Add(1)
			go func(c int) {
				defer clients.Done()
				recs := make([]reqRec, 0, 1<<12)
				for now() < stop {
					recs = append(recs, d.request(0, 0))
				}
				perClient[c] = recs
			}(c)
		}
		clients.Wait()
		for _, recs := range perClient {
			lr.recs = append(lr.recs, recs...)
		}
	}
	clients.Wait()
	sampler.Wait()
	for i := range lr.recs {
		lr.lastDue = max(lr.lastDue, lr.recs[i].due)
		lr.lastDone = max(lr.lastDone, lr.recs[i].done)
	}
	return lr
}

// quiesce waits for the traced deployment's payload ledger to settle: the
// last result reaches the caller a few microseconds before the provider
// goroutines that handled its chunks have recycled them.
func (d *deployment) quiesce() int64 {
	if d.rec == nil {
		return 0
	}
	deadline := now() + int64(200*time.Millisecond)
	for d.rec.ledger.Load() != 0 && now() < deadline {
		time.Sleep(time.Millisecond)
	}
	return d.rec.ledger.Load()
}

// stepsPerImage compiles the deployed strategy the way the runtime does and
// counts the compute steps one image takes across all providers.
func (d *deployment) stepsPerImage() (int, error) {
	env, err := commonEnv()
	if err != nil {
		return 0, err
	}
	plan, err := runtime.BuildPlan(env, d.plan.Strategy, d.opts)
	if err != nil {
		return 0, err
	}
	steps := 0
	for _, pp := range plan.Providers {
		steps += len(pp.Steps)
	}
	return steps, nil
}

// checkServing verifies what the runner can verify from outside: every
// Enqueue produced exactly one Result and the gateway's own ledger agrees
// with the caller's; on a failure-free run every compute step ran exactly
// once per served image; an open-loop backlog drained in time.
func (d *deployment) checkServing(lr *loadResult, sum []gateway.TenantSummary) []string {
	var bad []string
	var mine, theirs [4]int
	enqueued := 0
	for _, r := range lr.recs {
		mine[r.outcome]++
	}
	for _, s := range sum {
		enqueued += s.Enqueued
		theirs[outOK] += s.Completed
		theirs[outLate] += s.Late
		theirs[outExpired] += s.Expired
		theirs[outFailed] += s.Failed
	}
	if got := theirs[outOK] + theirs[outLate] + theirs[outExpired] + theirs[outFailed]; got != enqueued {
		bad = append(bad, fmt.Sprintf("gateway summary: completed+late+expired+failed = %d, enqueued = %d", got, enqueued))
	}
	if mine != theirs {
		bad = append(bad, fmt.Sprintf("results received (ok/late/expired/failed) %v differ from the gateway summary %v", mine, theirs))
	}
	if mine[outFailed] == 0 {
		steps, err := d.stepsPerImage()
		if err != nil {
			bad = append(bad, fmt.Sprintf("compile deployed plan: %v", err))
		} else {
			executed := 0
			for _, ps := range d.cluster.Stats() {
				executed += ps.StepsExecuted
			}
			if want := (mine[outOK] + mine[outLate]) * steps; executed != want {
				bad = append(bad, fmt.Sprintf("providers executed %d steps, %d served images x %d steps/image = %d", executed, mine[outOK]+mine[outLate], steps, want))
			}
		}
	}
	if d.w.open {
		if drain := float64(lr.lastDone-lr.lastDue) / 1e9; drain > maxDrainSec {
			bad = append(bad, fmt.Sprintf("overloaded: the backlog took %.2f s to drain after the last arrival", drain))
		}
	}
	return bad
}

// Compile-time checks that the decorator keeps the capabilities the runtime
// probes for.
var (
	_ transport.PayloadPool = (*tracedTransport)(nil)
	_ transport.BufferSizer = (*tracedTransport)(nil)
	_ transport.WireCodec   = (*tracedTransport)(nil)
	_ transport.BatchConn   = (*tracedBatchConn)(nil)
)
