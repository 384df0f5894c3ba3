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
// Bytes charged: the size of the frame the inner transport's wire codec
// makes of the payload, minus the fixed chunk header (emulation framing,
// not activation bytes). Under the binary codec that is exactly the
// payload length; a quantizing or compressing codec buys back link
// seconds just as it would on a real link. An inner transport without a
// wire codec (inproc — payloads cross by reference, there is no frame) is
// charged the raw payload length. Each message is encoded twice, once to
// size it and once to send it; the shaped transport trades that CPU for
// model accuracy by design.
//
// Time mapping: wall-clock seconds since the transport's *first charged
// send*, divided by TimeScale, are the trace time — consistent with the
// runtime scaling compute sleeps by the same TimeScale. Anchoring at the first send rather than at construction
// keeps deployment setup (plan build, listener spin-up) from skewing the
// trace origin: the skew would be amplified by 1/TimeScale, and on a
// dynamic trace the run would then be charged a different phase of the
// trace than the simulator predicts from t = 0. Payload lengths are
// divided by BytesScale to recover model bytes, so the charged latency
// equals the simulator's TransferLatency for the unscaled activation
// regardless of how small the emulation payloads are.
type Shaped struct {
	inner      Transport
	net        *network.Network
	timeScale  float64
	bytesScale float64
	wireCodec  Codec // nil: no wire frame, charge the raw payload

	t0Once sync.Once
	t0     time.Time
}

// WireCodec is implemented by transports that can report the codec their
// frames actually cross the wire in (the tcp transport returns its
// configured codec). Shaped uses it to charge emulated links the bytes the
// codec really produces.
type WireCodec interface {
	WireCodec() Codec
}

// NewShaped wraps inner so sends are charged trace latency from net.
// timeScale and bytesScale should match the runtime Options the cluster is
// deployed with (zero means 1).
func NewShaped(inner Transport, net *network.Network, timeScale, bytesScale float64) *Shaped {
	if timeScale <= 0 {
		timeScale = 1
	}
	if bytesScale <= 0 {
		bytesScale = 1
	}
	t := &Shaped{
		inner:      inner,
		net:        net,
		timeScale:  timeScale,
		bytesScale: bytesScale,
	}
	if wc, ok := inner.(WireCodec); ok {
		t.wireCodec = wc.WireCodec()
	}
	return t
}

func (t *Shaped) Name() string { return "shaped+" + t.inner.Name() }

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
	return time.Since(t.t0).Seconds() / t.timeScale
}

func (t *Shaped) Listen(self int) (Listener, error) {
	ln, err := t.inner.Listen(self)
	if err != nil {
		return nil, err
	}
	return &devListener{ln: ln, self: self}, nil
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

type shapedConn struct {
	Conn
	t        *Shaped
	from, to int
	mu       sync.Mutex
	link     Pacer // guarded by mu; the directed link's ideal schedule

	// Wire sizing state (inner stacks with a wire codec), used under mu: a
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
