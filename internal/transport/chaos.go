package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ChaosConfig tunes the chaos decorator. The zero value injects nothing.
type ChaosConfig struct {
	// Seed makes the injected faults reproducible: each directed
	// connection derives its own rand stream from (Seed, from, to), so a
	// given connection sees the same drop/delay sequence on every run
	// regardless of what other connections do.
	Seed int64
	// Drop is the per-message probability that a data chunk is silently
	// discarded (the sender sees success — packet loss, not a link
	// failure). Control messages are never dropped here; kill heartbeats
	// by isolating the device instead.
	Drop float64
	// MaxDelay, when positive, adds a uniform [0,MaxDelay) pause before
	// each data-chunk delivery. Like Drop it never touches control
	// messages: a delayed heartbeat would trip the failure detector and
	// turn a delay-tolerance run into a recovery run.
	MaxDelay time.Duration
}

// Chaos decorates any inner transport with deterministic, seeded fault
// injection: probabilistic chunk drops, bounded random delivery delays,
// and runtime-controlled partitions. It feeds the recovery machinery the
// failure shapes a real edge network produces — lost chunks surface as
// image timeouts, partitions as send errors and heartbeat loss — without
// the nondeterminism of real packet loss.
type Chaos struct {
	inner Transport
	cfg   ChaosConfig

	mu       sync.Mutex
	isolated map[int]bool
}

// NewChaos wraps inner with seeded fault injection.
func NewChaos(inner Transport, cfg ChaosConfig) *Chaos {
	return &Chaos{inner: inner, cfg: cfg, isolated: make(map[int]bool)}
}

func (t *Chaos) Name() string { return "chaos+" + t.inner.Name() }

// GetPayload / PutPayload forward payload pooling to the inner transport.
func (t *Chaos) GetPayload(n int) []byte { return GetPayload(t.inner, n) }
func (t *Chaos) PutPayload(b []byte)     { RecyclePayload(t.inner, b) }

// SetBufferHint forwards the deployment's max-chunk size to the inner
// transport. Chaos conns stay on the per-message Send path (every message
// must roll its own drop/delay dice), so only buffer sizing crosses.
func (t *Chaos) SetBufferHint(maxChunkBytes int) { SetBufferHint(t.inner, maxChunkBytes) }

// Isolate partitions a device from everyone until Heal: every send to or
// from it fails immediately — including on connections established before
// the partition, heartbeats included — and new dials are refused. The
// requester therefore sees both missed beats and send errors, the two
// detection paths the recovery machinery watches.
func (t *Chaos) Isolate(dev int) {
	t.mu.Lock()
	t.isolated[dev] = true
	t.mu.Unlock()
}

// Heal lifts a device's partition.
func (t *Chaos) Heal(dev int) {
	t.mu.Lock()
	delete(t.isolated, dev)
	t.mu.Unlock()
}

func (t *Chaos) partitioned(from, to int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.isolated[from] || t.isolated[to]
}

func (t *Chaos) Listen(self int) (Listener, error) {
	ln, err := t.inner.Listen(self)
	if err != nil {
		return nil, err
	}
	return &chaosListener{ln: ln, self: self}, nil
}

func (t *Chaos) Dial(self int, addr string) (Conn, error) {
	to, rest, err := splitDevAddr(addr)
	if err != nil {
		return nil, err
	}
	if t.partitioned(self, to) {
		return nil, fmt.Errorf("transport: chaos: %d->%d partitioned", self, to)
	}
	c, err := t.inner.Dial(self, rest)
	if err != nil {
		return nil, err
	}
	seed := t.cfg.Seed*1_000_003 + int64(self+2)*4099 + int64(to+2)
	return &chaosConn{
		Conn: c,
		t:    t,
		from: self,
		to:   to,
		rng:  rand.New(rand.NewSource(seed)),
	}, nil
}

type chaosListener struct {
	ln   Listener
	self int
}

func (l *chaosListener) Accept() (Conn, error) { return l.ln.Accept() }
func (l *chaosListener) Addr() string          { return encodeDevAddr(l.self, l.ln.Addr()) }
func (l *chaosListener) Close() error          { return l.ln.Close() }

type chaosConn struct {
	Conn
	t        *Chaos
	from, to int

	mu  sync.Mutex
	rng *rand.Rand
}

func (c *chaosConn) Send(m Message) error {
	if c.t.partitioned(c.from, c.to) {
		return fmt.Errorf("transport: chaos: %d->%d partitioned", c.from, c.to)
	}
	cfg := &c.t.cfg
	if !m.control() && (cfg.Drop > 0 || cfg.MaxDelay > 0) {
		c.mu.Lock()
		drop := cfg.Drop > 0 && c.rng.Float64() < cfg.Drop
		var delay time.Duration
		if cfg.MaxDelay > 0 {
			delay = time.Duration(c.rng.Int63n(int64(cfg.MaxDelay)))
		}
		c.mu.Unlock()
		if drop {
			return nil // lost on the wire; the sender cannot tell
		}
		if delay > 0 {
			//distlint:allow baresleep -- an injected fault, not emulated work: the delay is meant to land on the critical path unrepaid
			time.Sleep(delay)
		}
	}
	return c.Conn.Send(m)
}
