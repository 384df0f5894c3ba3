package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"distredge/internal/admit"
	"distredge/internal/device"
	"distredge/internal/stats"
	"distredge/internal/strategy"
)

// Admission policies for Serve. The rule is internal/admit's, the one the
// runtime gateway runs, so a policy swept offline here transfers to
// internal/gateway unchanged: AdmitFIFO serves requests strictly in enqueue
// order, AdmitWFQ is weighted fair queueing by request count.
const (
	AdmitFIFO = admit.FIFO
	AdmitWFQ  = admit.WFQ
)

// TenantSpec describes one tenant's workload: a backlog of Images requests
// enqueued together at EnqueueSec (the burst model — a client handing the
// gateway its whole batch at once).
type TenantSpec struct {
	Name   string
	Images int
	// Weight is the tenant's fair-queueing share (<= 0 means 1; 1/Weight
	// must be finite). Only AdmitWFQ consults it.
	Weight float64
	// Window caps the tenant's own in-flight requests (<= 0 means bounded
	// only by the global window).
	Window int
	// EnqueueSec is when the tenant's backlog arrives, relative to the
	// stream start. Must not be negative.
	EnqueueSec float64
}

// TenantResult is one tenant's latency distribution. Latencies are
// enqueue-to-completion — they include the time a request queued in the
// gateway before admission, which is what a per-tenant SLO bounds (and what
// FIFO vs fair queueing actually changes).
type TenantResult struct {
	Name        string
	Images      int       // requests whose results were committed
	PerImageSec []float64 // enqueue-to-completion, in first-admission order
	MeanLatMS   float64
	P50LatMS    float64
	P95LatMS    float64
	MaxLatMS    float64
}

// Scenario is everything Serve can be asked to model. The dimensions are
// independent: sequential serving is Window 1, pipelined serving is one
// tenant, the gateway is several, churn is a non-empty event list, and any
// combination of them with Batch and WireFrac is one more Scenario.
type Scenario struct {
	// Tenants are the request backlogs sharing the fleet (at least one).
	Tenants []TenantSpec
	Policy  string // AdmitFIFO (default) or AdmitWFQ
	Window  int    // global admission window shared by every tenant

	// Batch is the per-step image batching the devices run with: up to
	// Batch images whose inputs queued behind a busy device coalesce into
	// one step invocation under the sublinear BatchedComputeSec cost model.
	// 1 (or negative) disables batching. 0 — the zero value — is the
	// adaptive cap, mirroring the runtime's Options.Batch: a step drains
	// whatever queued behind the busy device, joining the open batch
	// without a size bound.
	Batch int

	// WireFrac scales every transfer's byte count, modelling a wire codec
	// that shrinks payloads (0.25 for int8 quantization, 0.5 for fp16).
	// 0 means 1 (raw bytes). Must be positive and finite.
	WireFrac float64

	Start float64 // trace time of the stream start

	// Events is the scripted fleet timeline (absolute trace times, any
	// order); ChurnOptions says how the deployment reacts to it.
	Events []ChurnEvent
	ChurnOptions
}

// ServeResult is the outcome of one Serve run. The embedded PipelineResult
// is the whole stream seen from the fleet: Images counts every submitted
// request, and the latency distribution is first admission to completion
// over the committed images, in first-admission order. Tenants is the same
// run seen by each tenant, enqueue to completion. With a truncated stream
// (DeviceDrop with a nil Replan) IPS and both distributions cover only
// the committed images.
type ServeResult struct {
	PipelineResult
	Policy  string
	Tenants []TenantResult

	Completed int // images whose results were committed
	Failed    int // images lost to an unrecovered drop

	Recoveries int // re-plans executed
	Requeued   int // in-flight images aborted at an event and re-admitted

	// FailedAtSec is the absolute trace time an unrecovered drop ended the
	// stream, or -1.
	FailedAtSec float64
	// EventRecoverySec holds, per applied event in order, the delay from the
	// event to the first committed completion after it (-1 when the stream
	// produced none) — the simulator's time-to-recover prediction.
	EventRecoverySec []float64
}

// Serve replays the strategy serving the scenario's tenants through one
// shared pipeline. A global window of images is kept in flight over the
// busy-floor resource model of CompiledPlan.replay; a slot frees the moment
// its image completes, and the next request is chosen by the admission
// policy among tenants with backlog, per-tenant window slack and an arrived
// burst.
//
// A fleet event fires before any admission at a time at or after its At (on
// a tie the event goes first) and, once nothing is queued, only while it is
// strictly earlier than the last in-flight completion. At an event every
// in-flight image that completed by At is committed; the rest are aborted
// to the front of their own tenant's queue in admission order, keep their
// first admission time for latency accounting and are not charged WFQ
// virtual service a second time. The plan is recompiled against the changed
// fleet — with a Replan, after re-planning over the survivors — and
// nothing is admitted before At (plus ReplanSec with a Replan). Without a
// Replan a DeviceDrop fails everything not committed by At and ends the
// stream (the sticky-failure semantics of the runtime's Cluster.Err), and
// joins are ignored. DESIGN.md says why this recompile-at-event model is
// conservative.
func (e *Env) Serve(s *strategy.Strategy, sc Scenario) (ServeResult, error) {
	var r serving
	if err := r.init(e.NumProviders(), &sc); err != nil {
		return ServeResult{}, err
	}
	p, err := e.checkoutPlan(s)
	if err != nil {
		return ServeResult{}, err
	}
	// Plans recompiled at events are bound to derived envs and are dropped;
	// the untouched original goes back to the env memo.
	defer e.checkinPlan(p)
	if err := r.run(e, p, &sc); err != nil {
		return ServeResult{}, err
	}
	res := r.res
	res.Tenants = r.tenantResults(sc.Tenants)
	res.Assemble(r.start, r.lat[:r.ids], r.complete[:r.ids], &r.scratch)
	return res, nil
}

// tenantState is one tenant's queue as the admission loop sees it.
type tenantState struct {
	admit.Tenant         // window, in-flight count and fair-queueing state
	enq          float64 // absolute enqueue time of the burst; the FIFO key
	fresh        int     // requests never admitted
	aborted      int     // aborted requests, at the front of the queue
}

// serving is one run of the admission loop. An image's id is the rank of
// its first admission, which is the order every per-image slice is in.
type serving struct {
	res   ServeResult // counters accumulate here; overall fills in the rest
	start float64

	now     float64 // admission cursor, absolute
	sched   admit.Sched
	tenants []tenantState
	queued  int   // requests waiting for admission, over all tenants
	slots   []int // ids in flight, in admission order
	requeue []int // aborted ids awaiting re-admission; each tenant's own are in its admission order

	ids      int       // images admitted at least once
	owner    []int32   // tenant of image id
	firstAdm []float64 // absolute first admission
	lat      []float64 // first admission to completion
	complete []float64 // absolute completion; +Inf while aborted and once lost to an unrecovered drop
	scratch  []float64 // Assemble's sort buffer
	times    []float64 // backing of firstAdm, complete and scratch

	// The deployment, changed only by fleet events.
	plan    *CompiledPlan
	ps      pipeState
	strat   *strategy.Strategy
	alive   []bool
	factors []float64 // accumulated DeviceSlow multipliers

	spec [1]TenantSpec // Env.pipeline's one tenant, kept by init
}

// init validates the scenario against a fleet of n providers, fills in its
// defaults and sizes the run's state. A serving that ran before keeps its
// buffers: Env.pipeline reuses one per plan.
func (r *serving) init(n int, sc *Scenario) error {
	*r = serving{tenants: r.tenants, owner: r.owner, lat: r.lat, times: r.times, slots: r.slots, ps: r.ps, spec: r.spec}
	if len(sc.Tenants) == 0 {
		return fmt.Errorf("sim: need at least one tenant")
	}
	var err error
	if r.sched, err = admit.New(sc.Policy, sc.Window); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	r.res.Policy = r.sched.Policy()
	if sc.Batch < 0 {
		sc.Batch = 1
	}
	if sc.WireFrac == 0 {
		sc.WireFrac = 1
	}
	if !(sc.WireFrac > 0) || math.IsInf(sc.WireFrac, 0) {
		return fmt.Errorf("sim: wire fraction must be positive and finite, got %v", sc.WireFrac)
	}
	for _, ev := range sc.Events {
		if ev.Device < 0 || ev.Device >= n {
			return fmt.Errorf("sim: churn event at t=%g: device %d out of range [0,%d)", ev.At, ev.Device, n)
		}
		if math.IsNaN(ev.At) {
			return fmt.Errorf("sim: churn event on device %d: time is not a number", ev.Device)
		}
		if ev.Kind < DeviceDrop || ev.Kind > DeviceSlow {
			return fmt.Errorf("sim: churn event at t=%g: unknown churn kind %v", ev.At, ev.Kind)
		}
		if ev.Kind == DeviceSlow && (!(ev.Factor > 0) || math.IsInf(ev.Factor, 1)) {
			return fmt.Errorf("sim: slow event needs a positive, finite factor, got %g", ev.Factor)
		}
	}
	r.start, r.now = sc.Start, sc.Start
	r.res.Window, r.res.Batch, r.res.FailedAtSec = sc.Window, sc.Batch, -1
	r.tenants = resize(r.tenants, len(sc.Tenants))
	for i, t := range sc.Tenants {
		if t.Images < 1 {
			return fmt.Errorf("sim: tenant %d needs at least one image, got %d", i, t.Images)
		}
		if t.EnqueueSec < 0 {
			return fmt.Errorf("sim: tenant %d enqueue time %g is negative", i, t.EnqueueSec)
		}
		if math.IsNaN(t.EnqueueSec) || math.IsInf(t.EnqueueSec, 1) {
			return fmt.Errorf("sim: tenant %d enqueue time %g is not finite", i, t.EnqueueSec)
		}
		ts := &r.tenants[i]
		if ts.Tenant, err = r.sched.Bind(t.Weight, t.Window); err != nil {
			return fmt.Errorf("sim: tenant %d: %w", i, err)
		}
		ts.enq, ts.fresh = sc.Start+t.EnqueueSec, t.Images
		r.res.Images += t.Images
	}
	total := r.res.Images
	r.queued = total
	r.owner = resize(r.owner, total)
	r.lat = resize(r.lat, total) // handed to the caller as PerImageSec
	r.times = resize(r.times, 3*total)
	r.firstAdm, r.complete, r.scratch = r.times[:total], r.times[total:2*total], r.times[2*total:]
	r.slots = slices.Grow(r.slots[:0], min(sc.Window, total))
	return nil
}

// run is the admission loop of an initialised serving on the checked-out
// plan p.
func (r *serving) run(e *Env, p *CompiledPlan, sc *Scenario) error {
	n := e.NumProviders()
	evs := sc.Events
	if len(evs) > 0 {
		evs = append([]ChurnEvent(nil), evs...)
		slices.SortStableFunc(evs, func(a, b ChurnEvent) int { return cmp.Compare(a.At, b.At) })
		r.strat, r.alive, r.factors = p.strat, make([]bool, n), make([]float64, n)
		for i := range r.alive {
			r.alive[i], r.factors[i] = true, 1
		}
	}
	r.plan = p
	r.ps.init(n, len(p.vols), sc.Batch, sc.WireFrac)

	for {
		// Free the slots of completed images; first and last are the
		// earliest and latest completions still in flight.
		first, last := math.Inf(1), math.Inf(-1)
		kept := r.slots[:0]
		for _, id := range r.slots {
			if done := r.complete[id]; done > r.now {
				kept = append(kept, id)
				first, last = min(first, done), max(last, done)
			} else {
				r.sched.Release(&r.tenants[r.owner[id]].Tenant)
			}
		}
		r.slots = kept

		// t is the earliest the next admission could happen: now if a
		// request is admissible, else the next completion or burst arrival.
		pick, t := r.pick()
		if pick < 0 {
			t = min(t, first)
		}
		if len(evs) > 0 {
			due := evs[0].At <= t
			if r.queued == 0 {
				// Only in-flight images remain: an event can still abort
				// them, so keep firing until they are all past.
				due = evs[0].At < last
			}
			if due {
				if err := r.fire(e, evs[0], &sc.ChurnOptions); err != nil {
					return err
				}
				evs = evs[1:]
				if r.res.FailedAtSec >= 0 {
					return nil
				}
				continue
			}
		}
		switch {
		case r.queued == 0:
			return nil
		case pick >= 0:
			r.admit(pick, r.plan.replay(r.now, &r.ps, nil))
		case math.IsInf(t, 1):
			return fmt.Errorf("sim: admission wedged with %d images left", r.queued)
		default:
			r.now = t
		}
	}
}

// pick returns the tenant the admission policy serves at r.now and r.now
// itself, or -1 and the earliest burst arrival still ahead (+Inf if none)
// when the window is full or no tenant has an arrived backlog and window
// slack. A tenant's head is ready once its burst has arrived and requests
// are left; its FIFO key is the burst's enqueue time.
func (r *serving) pick() (int, float64) {
	next := math.Inf(1)
	best := r.sched.Pick(len(r.tenants), func(t int) (*admit.Tenant, float64, bool) {
		ts := &r.tenants[t]
		queued := ts.fresh+ts.aborted > 0
		if queued && ts.enq > r.now {
			next = min(next, ts.enq)
		}
		return &ts.Tenant, ts.enq, queued && ts.enq <= r.now
	})
	if best >= 0 {
		next = r.now
	}
	return best, next
}

// admit records tenant t's head request entering the pipeline at r.now with
// the latency replay gave it.
func (r *serving) admit(t int, lat float64) {
	ts := &r.tenants[t]
	id := r.ids
	if ts.aborted > 0 {
		// Re-admission after an abort: latency is measured from the image's
		// first admission, so the wasted attempt and the re-planning delay
		// are visible in the distribution, and it is not charged again.
		k := 0
		for int(r.owner[r.requeue[k]]) != t {
			k++
		}
		id = r.requeue[k]
		r.requeue = append(r.requeue[:k], r.requeue[k+1:]...)
		ts.aborted--
		r.lat[id] = r.now + lat - r.firstAdm[id]
		r.sched.Readmit(&ts.Tenant)
	} else {
		r.ids++
		ts.fresh--
		r.owner[id], r.firstAdm[id], r.lat[id] = int32(t), r.now, lat
		r.sched.Admit(&ts.Tenant)
	}
	r.complete[id] = r.now + lat
	r.queued--
	r.slots = append(r.slots, id)
}

// fire applies one fleet event to the deployment.
func (r *serving) fire(e *Env, ev ChurnEvent, opts *ChurnOptions) error {
	if (ev.Kind == DeviceDrop && !r.alive[ev.Device]) ||
		(ev.Kind == DeviceJoin && (r.alive[ev.Device] || opts.Replan == nil)) {
		return nil // changes nothing, aborts nothing
	}
	// In-flight images done by the event are committed; the rest are aborted
	// and go back to the front of their tenants' queues in admission order.
	var aborted []int
	for _, id := range r.slots {
		ts := &r.tenants[r.owner[id]]
		r.sched.Release(&ts.Tenant)
		if r.complete[id] > ev.At {
			ts.aborted++
			aborted = append(aborted, id)
			r.complete[id] = math.Inf(1)
		}
	}
	r.slots = r.slots[:0]
	if ev.Kind == DeviceDrop && opts.Replan == nil {
		// Sticky failure: nothing is re-admitted, the stream ends here.
		r.res.FailedAtSec = ev.At
		return nil
	}
	r.requeue = append(aborted, r.requeue...)
	r.queued += len(aborted)
	r.res.Requeued += len(aborted)

	if ev.Kind == DeviceSlow {
		r.factors[ev.Device] *= ev.Factor
	} else {
		r.alive[ev.Device] = ev.Kind == DeviceJoin
	}
	models := make([]device.LatencyModel, len(r.alive))
	for i := range models {
		models[i] = device.Scaled(e.Devices[i], r.factors[i])
	}
	env := e.WithDevices(models)
	floor := ev.At // nothing restarts before the event (plus the re-plan charge)
	if opts.Replan != nil {
		ns, err := opts.Replan(env, r.strat, r.alive)
		if err != nil {
			return fmt.Errorf("sim: re-plan at t=%g: %w", ev.At, err)
		}
		r.strat = ns
		r.res.Recoveries++
		floor += opts.ReplanSec
	}
	np, err := Compile(env, r.strat)
	if err != nil {
		return fmt.Errorf("sim: recompile at t=%g: %w", ev.At, err)
	}
	r.plan = np
	r.ps.bindPlan(len(np.vols))
	r.now = max(r.now, floor)
	r.res.EventRecoverySec = append(r.res.EventRecoverySec, ev.At)
	return nil
}

// tenantResults names each tenant and collects its enqueue-to-completion
// latencies in first-admission order; Assemble does the arithmetic.
func (r *serving) tenantResults(specs []TenantSpec) []TenantResult {
	out := make([]TenantResult, len(r.tenants))
	for id := 0; id < r.ids; id++ {
		if t := r.owner[id]; !math.IsInf(r.complete[id], 1) {
			out[t].PerImageSec = append(out[t].PerImageSec, r.complete[id]-r.tenants[t].enq)
		}
	}
	for t := range out {
		if out[t].Name = specs[t].Name; out[t].Name == "" {
			out[t].Name = fmt.Sprintf("tenant%d", t)
		}
	}
	return out
}

// Assemble completes a run's result; Serve and the runtime's Cluster.Serve
// both end here. On entry res holds the run's counters, each applied
// event's time in EventRecoverySec and each tenant's Name and PerImageSec.
// lat and done hold, per image in first-admission order, first admission to
// completion and the absolute completion (+Inf if never committed); both
// are compacted in place. Latencies are sorted in *scratch.
func (res *ServeResult) Assemble(start float64, lat, done []float64, scratch *[]float64) {
	n, last := 0, start
	for id, c := range done {
		if !math.IsInf(c, 1) {
			lat[n], done[n] = lat[id], c
			n++
			last = max(last, c)
		}
	}
	done = done[:n]
	res.Completed, res.Failed = n, res.Images-n
	res.PerImageSec = lat[:n]
	res.TotalSec = last - start
	if res.FailedAtSec >= 0 {
		res.TotalSec = res.FailedAtSec - start
	}
	if res.TotalSec > 0 {
		res.IPS = float64(res.Completed) / res.TotalSec
	}
	if n > 0 {
		res.SteadyIPS = steadyIPS(done, res.IPS)
	}
	// Per applied event: from its time to the first completion after it.
	for i, at := range res.EventRecoverySec {
		rec := -1.0
		for _, c := range done {
			if c > at && (rec < 0 || c-at < rec) {
				rec = c - at
			}
		}
		res.EventRecoverySec[i] = rec
	}
	res.MeanLatMS, res.P50LatMS, res.P95LatMS, res.MaxLatMS = stats.LatencyMS(res.PerImageSec, scratch)
	for t := range res.Tenants {
		tr := &res.Tenants[t]
		tr.Images = len(tr.PerImageSec)
		tr.MeanLatMS, tr.P50LatMS, tr.P95LatMS, tr.MaxLatMS = stats.LatencyMS(tr.PerImageSec, scratch)
	}
}
