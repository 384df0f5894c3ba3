// Package gateway multiplexes many concurrent tenant request streams over
// one deployed cluster. It is the serving front-end the paper's
// one-requester protocol lacks: each tenant gets its own admission window,
// weight and per-request deadline, a global window bounds the images in
// flight on the fleet, and a scheduler picks the next request across
// tenants by FIFO or weighted fair queueing. The pick rule itself lives in
// internal/admit and is the one sim.Serve calls, so policies swept offline
// transfer unchanged; this package owns what the rule does not: the queues,
// the clock and deadlines, and the lock.
//
// Deadlines are measured from enqueue, not scatter: a request that sat
// queued behind a heavy tenant's burst and only then ran is late even
// though its scatter-to-result time was fine. That is the latency an SLO
// bounds, and the quantity sim.Serve distributes per tenant.
package gateway

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"distredge/internal/admit"
)

// Backend is the shared-cluster admission surface the gateway drives;
// *runtime.Cluster implements it (Submit is one image's
// scatter-to-assembled-result round trip, safe for concurrent callers). On
// a cluster deployed with an Options.Replan, Submit blocks across a provider
// death and returns nil once the image completed on the healed fleet, so a
// request keeps its slot, its enqueue time and its one WFQ charge; an error
// means the request is lost.
type Backend interface {
	Submit() error
}

// Admission policies (see internal/admit): FIFO serves requests in global
// enqueue order; WFQ charges each admission 1/Weight of virtual service and
// serves the tenant with the least.
const (
	PolicyFIFO = admit.FIFO
	PolicyWFQ  = admit.WFQ
)

// ErrDeadlineExceeded reports a request that missed its tenant's deadline —
// either expired in the queue before admission, or completed too late.
var ErrDeadlineExceeded = errors.New("gateway: request deadline exceeded")

// ErrClosed reports a request rejected or abandoned because the gateway
// shut down.
var ErrClosed = errors.New("gateway: closed")

// ErrUnknownTenant reports an Enqueue for a tenant the gateway was not
// configured with.
var ErrUnknownTenant = errors.New("gateway: unknown tenant")

// TenantConfig declares one tenant's admission contract.
type TenantConfig struct {
	Name string
	// Weight is the tenant's fair-queueing share (<= 0 means 1; 1/Weight
	// must be finite); only PolicyWFQ consults it.
	Weight float64
	// Window caps the tenant's own in-flight requests (<= 0 means bounded
	// only by the gateway's global window).
	Window int
	// Deadline bounds each request's enqueue-to-completion time (0 = none).
	// Requests still queued past it are dropped without running; requests
	// that complete past it report ErrDeadlineExceeded but still count
	// their latency.
	Deadline time.Duration
}

// Config parameterises a Gateway.
type Config struct {
	// Window is the global admission window: the maximum images in flight
	// on the backend across all tenants. Must be >= 1.
	Window int
	// Policy is PolicyFIFO (default) or PolicyWFQ.
	Policy string
}

// Result is the terminal outcome of one enqueued request.
type Result struct {
	Tenant string
	// LatencyMS is enqueue-to-completion wall time; 0 when the request
	// never reached the backend (queue-expired or gateway closed).
	LatencyMS float64
	Err       error
}

// request is one enqueued request. Structs are recycled through the
// gateway's free list once their Result is sent; only res, which the caller
// keeps, is fresh per request.
type request struct {
	tenant  int
	seq     uint64 // global enqueue order; the FIFO key
	enqueue time.Time
	res     chan Result // buffered(1); the caller's completion signal
}

// TenantSummary aggregates one tenant's outcomes since the gateway
// started. Latency statistics cover requests the backend actually served
// (including late ones); queue-expired requests count only in Expired.
// Percentiles are the caller's to take over each Result's LatencyMS: the
// gateway keeps a running sum and max per tenant, not every request's
// latency for the life of the process.
type TenantSummary struct {
	Tenant    string
	Enqueued  int
	Completed int // served within deadline (or no deadline)
	Late      int // served, but past deadline
	Expired   int // dropped from the queue before admission
	Failed    int // backend error or gateway closed
	MeanLatMS float64
	MaxLatMS  float64
}

// Gateway admits tenant requests into a Backend under a global window, a
// per-tenant window, an admission policy, and per-request deadlines. One
// scheduler goroutine admits; at most Window long-lived workers call
// Submit, so a warm gateway spawns nothing per request and allocates only
// the Result channel Enqueue returns.
type Gateway struct {
	be      Backend
	tenants []TenantConfig
	byName  map[string]int

	mu      sync.Mutex
	queues  []ring          // guarded by mu; per-tenant FIFO backlog deques
	sched   admit.Sched     // guarded by mu; policy, global window and the requests on the backend
	adm     []admit.Tenant  // guarded by mu; per-tenant window, in-flight count and fair-queueing state
	nextSeq uint64          // guarded by mu; global enqueue order
	counts  []TenantSummary // guarded by mu; running outcome counters
	latSum  []time.Duration // guarded by mu; per tenant: total latency served
	latMax  []time.Duration // guarded by mu; per tenant: worst latency served
	free    []*request      // guarded by mu; recycled requests
	workers int             // guarded by mu; workers started, at most cap(work)
	closed  bool            // guarded by mu

	// deadlined lists the tenants with deadlines, immutable after New: the
	// expiry sweep visits only them.
	deadlined []int

	// work carries admitted requests to the workers that run them on the
	// backend. Its capacity is the global window, so a send under mu never
	// blocks: every request in it is admitted and not yet released, and
	// those are at most the window. Close closes it after setting closed.
	work chan *request
	wake chan struct{} // buffered(1): kicks the scheduler
	done chan struct{}
	wg   sync.WaitGroup // scheduler + workers
}

// New starts a gateway over the backend. Tenant names must be unique and
// non-empty.
func New(be Backend, cfg Config, tenants []TenantConfig) (*Gateway, error) {
	if be == nil {
		return nil, fmt.Errorf("gateway: nil backend")
	}
	sched, err := admit.New(cfg.Policy, cfg.Window)
	if err != nil {
		return nil, fmt.Errorf("gateway: %w", err)
	}
	if len(tenants) == 0 {
		return nil, fmt.Errorf("gateway: need at least one tenant")
	}
	g := &Gateway{
		be:      be,
		tenants: append([]TenantConfig(nil), tenants...),
		byName:  make(map[string]int, len(tenants)),
		queues:  make([]ring, len(tenants)),
		sched:   sched,
		adm:     make([]admit.Tenant, len(tenants)),
		counts:  make([]TenantSummary, len(tenants)),
		latSum:  make([]time.Duration, len(tenants)),
		latMax:  make([]time.Duration, len(tenants)),
		work:    make(chan *request, cfg.Window),
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	for i, t := range g.tenants {
		if t.Name == "" {
			return nil, fmt.Errorf("gateway: tenant %d has no name", i)
		}
		if _, dup := g.byName[t.Name]; dup {
			return nil, fmt.Errorf("gateway: duplicate tenant %q", t.Name)
		}
		g.byName[t.Name] = i
		if g.adm[i], err = g.sched.Bind(t.Weight, t.Window); err != nil {
			return nil, fmt.Errorf("gateway: tenant %q: %w", t.Name, err)
		}
		if t.Deadline > 0 {
			g.deadlined = append(g.deadlined, i)
		}
		g.counts[i].Tenant = t.Name
	}
	g.wg.Add(1)
	go g.schedule()
	return g, nil
}

// Enqueue queues one request for the named tenant and returns the channel
// its Result will be delivered on (buffered: the gateway never blocks on a
// slow caller). The channel is the request's one allocation.
func (g *Gateway) Enqueue(tenant string) (<-chan Result, error) {
	t, ok := g.byName[tenant]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, tenant)
	}
	res := make(chan Result, 1)
	now := time.Now()
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil, ErrClosed
	}
	var r *request
	if n := len(g.free); n > 0 {
		r, g.free = g.free[n-1], g.free[:n-1]
	} else {
		r = new(request)
	}
	*r = request{tenant: t, seq: g.nextSeq, enqueue: now, res: res}
	g.nextSeq++
	g.queues[t].push(r)
	g.counts[t].Enqueued++
	g.mu.Unlock()
	g.kick()
	return res, nil
}

func (g *Gateway) kick() {
	select {
	case g.wake <- struct{}{}:
	default:
	}
}

func (g *Gateway) schedule() {
	defer g.wg.Done()
	for {
		select {
		case <-g.done:
			return
		case <-g.wake:
		}
		g.dispatchBatch()
	}
}

// dispatchBatch expires dead queued requests, then admits every currently
// admissible request in one critical section, so a burst of completions (or
// enqueues) costs one lock acquisition. Each admitted request goes to the
// workers; one more worker starts while fewer than the window run.
func (g *Gateway) dispatchBatch() {
	now := time.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return
	}
	g.expireLocked(now)
	for {
		t := g.sched.Pick(len(g.adm), g.headLocked)
		if t < 0 {
			return
		}
		g.sched.Admit(&g.adm[t])
		g.work <- g.queues[t].pop()
		if g.workers < cap(g.work) {
			g.workers++
			g.wg.Add(1)
			go g.worker()
		}
	}
}

// headLocked is admit.Pick's view of tenant t's queue: a queued request is
// ready at once, and its FIFO key is its global enqueue sequence number
// (exact as a float64 below 2^53 requests).
func (g *Gateway) headLocked(t int) (*admit.Tenant, float64, bool) {
	q := &g.queues[t]
	if q.len() == 0 {
		return &g.adm[t], 0, false
	}
	return &g.adm[t], float64(q.front().seq), true
}

// expireLocked drops queued requests whose deadline already passed without
// spending backend capacity on them. Only tenants with deadlines are
// visited, and each tenant's expired requests form a prefix of its deque
// (one deadline per tenant and monotone enqueue times), so the sweep pops
// heads instead of filtering whole queues.
func (g *Gateway) expireLocked(now time.Time) {
	for _, t := range g.deadlined {
		d := g.tenants[t].Deadline
		q := &g.queues[t]
		for q.len() > 0 && now.Sub(q.front().enqueue) > d {
			g.counts[t].Expired++
			g.finishLocked(q.pop(), Result{Tenant: g.tenants[t].Name, Err: ErrDeadlineExceeded})
		}
	}
}

// finishLocked delivers r's Result — the buffered channel never blocks —
// and recycles r.
func (g *Gateway) finishLocked(r *request, res Result) {
	r.res <- res
	*r = request{}
	g.free = append(g.free, r)
}

// worker runs admitted requests until Close closes the work channel and it
// is drained.
func (g *Gateway) worker() {
	defer g.wg.Done()
	for r := range g.work {
		g.serve(r)
	}
}

// serve runs one admitted request on the backend and delivers its Result.
func (g *Gateway) serve(r *request) {
	err := g.be.Submit()
	lat := time.Since(r.enqueue)
	t := r.tenant
	name := g.tenants[t].Name
	if err == nil && g.tenants[t].Deadline > 0 && lat > g.tenants[t].Deadline {
		err = ErrDeadlineExceeded
	}
	g.mu.Lock()
	g.sched.Release(&g.adm[t]) // the kick below lets the freed slots readmit
	if err == nil {
		g.counts[t].Completed++
	} else if errors.Is(err, ErrDeadlineExceeded) {
		g.counts[t].Late++
	} else {
		g.counts[t].Failed++
	}
	if err == nil || errors.Is(err, ErrDeadlineExceeded) {
		// The backend did serve it: its latency belongs in the
		// distribution whether or not it beat the deadline.
		g.latSum[t] += lat
		g.latMax[t] = max(g.latMax[t], lat)
	}
	g.finishLocked(r, Result{Tenant: name, LatencyMS: lat.Seconds() * 1e3, Err: err})
	g.mu.Unlock()
	g.kick()
}

// Summary returns per-tenant outcome counts and the mean and max latency of
// the requests the backend served, in tenant configuration order. It may be
// called while the gateway is live.
func (g *Gateway) Summary() []TenantSummary {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]TenantSummary, len(g.tenants))
	for t := range g.tenants {
		s := g.counts[t]
		if n := s.Completed + s.Late; n > 0 {
			s.MeanLatMS = g.latSum[t].Seconds() / float64(n) * 1e3
			s.MaxLatMS = g.latMax[t].Seconds() * 1e3
		}
		out[t] = s
	}
	return out
}

// Close stops admitting, fails every queued request with ErrClosed, and
// waits for in-flight backend submits to drain (they may still complete
// normally) and every worker to exit. Close does not close the backend.
func (g *Gateway) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		g.wg.Wait()
		return
	}
	g.closed = true
	close(g.work)
	for t := range g.queues {
		q := &g.queues[t]
		g.counts[t].Failed += q.len()
		for q.len() > 0 {
			g.finishLocked(q.pop(), Result{Tenant: g.tenants[t].Name, Err: ErrClosed})
		}
	}
	g.mu.Unlock()
	close(g.done)
	g.wg.Wait()
}
