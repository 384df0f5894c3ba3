package main

import (
	"sync"
	"sync/atomic"
	"time"

	"distredge/internal/gateway"
	"distredge/internal/plancache"
	"distredge/internal/sim"
	"distredge/internal/strategy"
	"distredge/internal/transport"
)

// epoch anchors every timestamp the benchmark takes: nanoseconds on the
// monotonic clock since the process started.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// The traced run observes each layer from outside: the wrappers below sit
// on the public seams between layers (gateway.Backend, transport.Transport,
// plancache.Planner) and record spans and counts around the calls that
// cross them. Nothing inside the program is instrumented.

// submitSpan is one Backend.Submit call as the gateway made it.
type submitSpan struct {
	start, end int64
	failed     bool
}

// tracedBackend wraps the cluster the gateway submits to.
type tracedBackend struct {
	inner gateway.Backend

	mu    sync.Mutex
	spans []submitSpan // guarded by mu
}

func (b *tracedBackend) Submit() error {
	t0 := now()
	err := b.inner.Submit()
	t1 := now()
	b.mu.Lock()
	b.spans = append(b.spans, submitSpan{start: t0, end: t1, failed: err != nil})
	b.mu.Unlock()
	return err
}

func (b *tracedBackend) snapshot() []submitSpan {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]submitSpan(nil), b.spans...)
}

// imageTimes is one image's life on the requester's connections: its input
// scatter (sends on the conns the requester dialled) and its result
// (receives on the conns the requester accepted).
type imageTimes struct {
	scatterStart, scatterEnd int64
	resultFirst, resultLast  int64
}

// wireRec is what the transport decorators record. Counters cover data
// messages only; heartbeats and other control frames pass uncounted.
type wireRec struct {
	dials        atomic.Int64
	msgs         atomic.Int64 // data messages sent
	payloadBytes atomic.Int64
	flushes      atomic.Int64 // plain Sends plus Flush calls that had frames pending
	sendNS       atomic.Int64 // time inside the innermost stack's Send/SendBuffered
	outerSendNS  atomic.Int64 // the same sends timed outside the link shaper
	sendHist     histogram
	poolGets     atomic.Int64
	// ledger counts payload buffers the runtime currently owns: +1 when one
	// enters it (GetPayload, or a Recv that carries a payload), -1 when one
	// leaves (Send transfers ownership, PutPayload recycles). Zero at
	// quiescence means no payload leaked or was released twice.
	ledger atomic.Int64

	mu     sync.Mutex
	images map[uint32]*imageTimes // guarded by mu
}

func newWireRec() *wireRec { return &wireRec{images: make(map[uint32]*imageTimes)} }

func (r *wireRec) scatter(img uint32, t0, t1 int64) {
	r.mu.Lock()
	it := r.images[img]
	if it == nil {
		it = &imageTimes{scatterStart: t0}
		r.images[img] = it
	}
	if t0 < it.scatterStart {
		it.scatterStart = t0
	}
	if t1 > it.scatterEnd {
		it.scatterEnd = t1
	}
	r.mu.Unlock()
}

func (r *wireRec) result(img uint32, t int64) {
	r.mu.Lock()
	if it := r.images[img]; it != nil {
		if it.resultFirst == 0 {
			it.resultFirst = t
		}
		it.resultLast = t
	}
	r.mu.Unlock()
}

func (r *wireRec) imageSnapshot() []imageTimes {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]imageTimes, 0, len(r.images))
	for _, it := range r.images {
		out = append(out, *it)
	}
	return out
}

// tracedTransport decorates a wire stack. With the link shaper in the
// stack two of them are used: one inside it (counts: messages, bytes,
// flushes, send time, the payload ledger) and one outside it (timeline:
// the per-image scatter/result times and the send time including the
// link's charge, whose difference to the inner send time is the link
// wait). Without a shaper one decorator does both jobs.
//
// It forwards every optional capability of the stack it wraps, so the
// runtime takes the same code path with and without it: PayloadPool,
// BufferSizer and WireCodec on the transport (each degrades exactly as the
// package-level helpers do when the inner stack lacks it), BatchConn on
// connections whose inner connection has it.
type tracedTransport struct {
	inner    transport.Transport
	rec      *wireRec
	counts   bool
	timeline bool
}

func (t *tracedTransport) Name() string { return t.inner.Name() }

func (t *tracedTransport) Listen(self int) (transport.Listener, error) {
	ln, err := t.inner.Listen(self)
	if err != nil {
		return nil, err
	}
	return &tracedListener{Listener: ln, t: t, requester: self == transport.Requester}, nil
}

func (t *tracedTransport) Dial(self int, addr string) (transport.Conn, error) {
	c, err := t.inner.Dial(self, addr)
	if err != nil {
		return nil, err
	}
	if t.counts {
		t.rec.dials.Add(1)
	}
	return t.wrap(c, self == transport.Requester, false), nil
}

func (t *tracedTransport) GetPayload(n int) []byte {
	if t.counts && n > 0 {
		t.rec.poolGets.Add(1)
		t.rec.ledger.Add(1)
	}
	return transport.GetPayload(t.inner, n)
}

func (t *tracedTransport) PutPayload(b []byte) {
	if t.counts && cap(b) > 0 {
		t.rec.ledger.Add(-1)
	}
	transport.RecyclePayload(t.inner, b)
}

func (t *tracedTransport) SetBufferHint(maxChunkBytes int) {
	transport.SetBufferHint(t.inner, maxChunkBytes)
}

func (t *tracedTransport) WireCodec() transport.Codec {
	if wc, ok := t.inner.(transport.WireCodec); ok {
		return wc.WireCodec()
	}
	return nil
}

func (t *tracedTransport) wrap(c transport.Conn, scatter, results bool) transport.Conn {
	tc := &tracedConn{Conn: c, t: t, scatter: scatter, results: results}
	if bc, ok := c.(transport.BatchConn); ok {
		return &tracedBatchConn{tracedConn: tc, bc: bc}
	}
	return tc
}

type tracedListener struct {
	transport.Listener
	t         *tracedTransport
	requester bool
}

func (l *tracedListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.t.wrap(c, false, l.requester), nil
}

// tracedConn wraps one connection. scatter marks a connection the
// requester dialled (its data sends are input scatters), results one the
// requester accepted (its data receives are results).
type tracedConn struct {
	transport.Conn
	t                *tracedTransport
	scatter, results bool
	pending          atomic.Int32 // frames SendBuffered left unflushed
}

func isData(m *transport.Message) bool { return m.Volume >= transport.VolInput }

// sent records one data send. Everything it needs was read from the
// message before the send, which transfers the payload's ownership.
func (c *tracedConn) sent(img uint32, payload int, t0, t1 int64) {
	rec := c.t.rec
	if c.t.counts {
		rec.msgs.Add(1)
		rec.payloadBytes.Add(int64(payload))
		rec.sendNS.Add(t1 - t0)
		rec.sendHist.add(t1 - t0)
		if payload > 0 {
			rec.ledger.Add(-1)
		}
	}
	if c.t.timeline {
		rec.outerSendNS.Add(t1 - t0)
		if c.scatter {
			rec.scatter(img, t0, t1)
		}
	}
}

func (c *tracedConn) Send(m transport.Message) error {
	data, img, payload := isData(&m), m.Image, len(m.Payload)
	t0 := now()
	err := c.Conn.Send(m)
	t1 := now()
	// A plain Send flushes the socket, taking any buffered frames with it.
	if pending := c.pending.Swap(0); c.t.counts && (data || pending > 0) {
		c.t.rec.flushes.Add(1)
	}
	if data {
		c.sent(img, payload, t0, t1)
	}
	return err
}

func (c *tracedConn) Recv() (transport.Message, error) {
	m, err := c.Conn.Recv()
	if err == nil && isData(&m) {
		if c.t.counts && len(m.Payload) > 0 {
			c.t.rec.ledger.Add(1)
		}
		if c.t.timeline && c.results {
			c.t.rec.result(m.Image, now())
		}
	}
	return m, err
}

// tracedBatchConn adds the deferred-flush capability when the wrapped
// connection has it, so transport.Coalescer keeps coalescing in the traced
// run.
type tracedBatchConn struct {
	*tracedConn
	bc transport.BatchConn
}

func (c *tracedBatchConn) SendBuffered(m transport.Message) error {
	data, img, payload := isData(&m), m.Image, len(m.Payload)
	t0 := now()
	err := c.bc.SendBuffered(m)
	t1 := now()
	c.pending.Add(1)
	if data {
		c.sent(img, payload, t0, t1)
	}
	return err
}

func (c *tracedBatchConn) Flush() error {
	t0 := now()
	err := c.bc.Flush()
	if c.t.counts && c.pending.Swap(0) > 0 {
		c.t.rec.flushes.Add(1)
		c.t.rec.sendNS.Add(now() - t0)
	}
	return err
}

// planCall is one inner planning the plan-cache service ran on a miss.
type planCall struct {
	ns   int64
	warm bool
}

// tracedPlanner wraps the planner the plan-cache service calls on a miss,
// so a request's time splits into the search itself and the service around
// it (signature, lookup, nearest-neighbour scan, scoring, insert).
func tracedPlanner(inner plancache.Planner, calls *[]planCall) plancache.Planner {
	return func(env *sim.Env, obj sim.Objective, init *strategy.Strategy) (*strategy.Strategy, error) {
		t0 := now()
		s, err := inner(env, obj, init)
		*calls = append(*calls, planCall{ns: now() - t0, warm: init != nil})
		return s, err
	}
}
