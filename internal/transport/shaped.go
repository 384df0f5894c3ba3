package transport

import (
	"sync"
	"time"

	"distredge/internal/network"
)

// Shaped decorates any inner transport so that every payload byte is
// charged the WiFi latency of a network.Network trace — the same model the
// simulator evaluates. The real runtime can then experience the paper's
// trace conditions (stable, highly dynamic, per-device heterogeneous) on
// top of a wire that is otherwise free, closing the sim↔runtime fidelity
// gap localhost TCP leaves open.
//
// Charging happens on the *sending* side of a dialled connection, before
// the message enters the inner transport, and the per-connection send lock
// is held for the duration: one directed link transfers one payload at a
// time, which is exactly the per-link busy floor sim.Serve models
// (and, for the requester's scatter, its serialised uplink — the
// requester's input rows all leave through Send on its per-destination
// conns, so scatter bytes queue behind each other just as the simulator
// charges them). Control messages carry no payload and pass free.
//
// Time mapping: wall-clock seconds since the transport's *first charged
// send*, divided by TimeScale, are the trace time offset from Start —
// consistent with the runtime scaling compute sleeps by the same
// TimeScale. Anchoring at the first send rather than at construction
// keeps deployment setup (plan build, listener spin-up) from skewing the
// trace origin: the skew would be amplified by 1/TimeScale, and on a
// dynamic trace the run would then be charged a different phase of the
// trace than the simulator predicts from t = Start. Payload lengths are
// divided by BytesScale to recover model bytes, so the charged latency
// equals the simulator's TransferLatency for the unscaled activation
// regardless of how small the emulation payloads are.
type Shaped struct {
	inner      Transport
	net        *network.Network
	timeScale  float64
	bytesScale float64
	start      float64
	wireCodec  Codec // non-nil: charge post-codec frame bytes, not raw payload

	t0Once sync.Once
	t0     time.Time
}

// WireCodec is implemented by transports that can report the codec their
// frames actually cross the wire in (the tcp transport returns its
// configured codec). Shaped.ChargePostCodec uses it to charge emulated
// links the bytes the codec really produces.
type WireCodec interface {
	WireCodec() Codec
}

// NewShaped wraps inner so sends are charged trace latency from net.
// timeScale and bytesScale should match the runtime Options the cluster is
// deployed with (zero means 1); start is the trace-time origin in seconds.
func NewShaped(inner Transport, net *network.Network, timeScale, bytesScale, start float64) *Shaped {
	if timeScale <= 0 {
		timeScale = 1
	}
	if bytesScale <= 0 {
		bytesScale = 1
	}
	return &Shaped{
		inner:      inner,
		net:        net,
		timeScale:  timeScale,
		bytesScale: bytesScale,
		start:      start,
	}
}

func (t *Shaped) Name() string { return "shaped+" + t.inner.Name() }

// ChargePostCodec switches byte charging from raw payload lengths to the
// size of the codec-produced wire frame (minus the fixed chunk header,
// which is emulation overhead, not activation bytes): a quantizing or
// compressing codec then genuinely buys back link seconds on shaped runs,
// which is what makes compression wins measurable per wire regime. The
// codec comes from the inner transport's WireCodec; an inner transport
// without one (inproc — payloads cross by reference, there is no wire
// frame) keeps pre-codec charging silently, preserving today's semantics.
// Each message is encoded twice (once to size it, once to send it); the
// shaped transport trades that CPU for model accuracy by design. Returns t
// for chaining.
func (t *Shaped) ChargePostCodec() *Shaped {
	if wc, ok := t.inner.(WireCodec); ok {
		t.wireCodec = wc.WireCodec()
	}
	return t
}

// GetPayload / PutPayload forward payload pooling to the inner transport.
func (t *Shaped) GetPayload(n int) []byte { return GetPayload(t.inner, n) }
func (t *Shaped) PutPayload(b []byte)     { RecyclePayload(t.inner, b) }

// SetBufferHint forwards the deployment's max-chunk size to the inner
// transport. Shaped conns themselves stay on the per-message Send path
// (each payload must be charged individually), so only the buffer sizing
// crosses the decorator.
func (t *Shaped) SetBufferHint(maxChunkBytes int) { SetBufferHint(t.inner, maxChunkBytes) }

// traceTime returns the current trace time in model seconds, anchoring
// the wall clock at the first charged send.
func (t *Shaped) traceTime() float64 {
	t.t0Once.Do(func() { t.t0 = time.Now() })
	return t.start + time.Since(t.t0).Seconds()/t.timeScale
}

func (t *Shaped) Listen(self int) (Listener, error) {
	ln, err := t.inner.Listen(self)
	if err != nil {
		return nil, err
	}
	return &shapedListener{ln: ln, self: self}, nil
}

func (t *Shaped) Dial(self int, addr string) (Conn, error) {
	to, rest, err := splitDevAddr(addr)
	if err != nil {
		return nil, err
	}
	c, err := t.inner.Dial(self, rest)
	if err != nil {
		return nil, err
	}
	return &shapedConn{Conn: c, t: t, from: self, to: to}, nil
}

// shapedListener publishes the endpoint's device index in its address so
// dialling peers know which link to charge. Accepted conns pass through
// unwrapped: shaping charges the dialling side's sends, and the runtime
// only sends on dialled connections.
type shapedListener struct {
	ln   Listener
	self int
}

func (l *shapedListener) Accept() (Conn, error) { return l.ln.Accept() }
func (l *shapedListener) Addr() string          { return encodeDevAddr(l.self, l.ln.Addr()) }
func (l *shapedListener) Close() error          { return l.ln.Close() }

type shapedConn struct {
	Conn
	t        *Shaped
	from, to int
	mu       sync.Mutex
	link     Pacer // guarded by mu; the directed link's ideal schedule

	// Post-codec sizing state (ChargePostCodec only), used under mu: a
	// per-conn encoder — codecs are stateful per stream — writing into a
	// byte counter, and the message it sizes (owned here so passing it to
	// the encoder does not allocate one per send).
	sizer   Encoder
	counter *countWriter
	sizing  Message
}

// Send charges the payload's transfer to the link and forwards the message
// with its Lag replaced by the link's own: the payload was ideally ready
// m.Lag before it got here, the transfer ideally ends one latency after the
// later of that and the previous transfer's ideal end, and however late the
// sleep to that end wakes is the debt the receiver repays.
func (c *shapedConn) Send(m Message) error {
	if len(m.Payload) > 0 {
		// Stamped before queueing on the link lock: the wait behind the
		// previous transfer contains that transfer's timer overshoot, which
		// the pacer's ideal busy-until already leaves out.
		ready := time.Now().Add(-m.Lag)
		c.mu.Lock()
		wireBytes := float64(len(m.Payload))
		if c.t.wireCodec != nil {
			wireBytes = float64(c.wireSize(m))
		}
		modelBytes := wireBytes / c.t.bytesScale
		lat := c.t.net.TransferLatency(c.from, c.to, modelBytes, c.t.traceTime())
		_, m.Lag = c.link.Charge(ready, time.Duration(lat*c.t.timeScale*float64(time.Second)))
		c.mu.Unlock()
	}
	return c.Conn.Send(m)
}

// wireSize returns the bytes the message's payload occupies on the wire
// under the charging codec: the encoded frame length minus the fixed chunk
// header (emulation framing, not activation data). Called with c.mu held.
// A sizing failure falls back to the raw payload length — charging too
// many bytes is the conservative direction.
func (c *shapedConn) wireSize(m Message) int {
	if c.sizer == nil {
		c.counter = &countWriter{}
		c.sizer = c.t.wireCodec.NewEncoder(c.counter)
	}
	c.counter.n = 0
	c.sizing = m
	err := c.sizer.Encode(&c.sizing)
	c.sizing = Message{}
	if err != nil {
		return len(m.Payload)
	}
	if n := c.counter.n - chunkHeaderLen; n > 0 {
		return n
	}
	return 0
}

// countWriter counts bytes and discards them.
type countWriter struct{ n int }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}
