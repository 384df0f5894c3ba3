package transport

import (
	"fmt"
	"strconv"
	"sync"
)

// inprocBuffer is the per-direction message buffer, sized like the
// runtime's socket-side queues: senders only block when a receiver is this
// far behind, mirroring TCP's kernel buffering without the sockets.
const inprocBuffer = 256

// Inproc is a pure in-process transport: one Inproc value is one network
// namespace, connections are Go channels, and messages cross between
// goroutines without serialisation (payload slices are handed over by
// reference; the runtime never mutates a payload after sending it, so the
// handover is race-free). It exists to make runtime tests fast and
// race-clean — no socket setup, no kernel buffering, no TCP timing noise —
// which is what lets the differential and chaos matrices run wide under
// -race.
type Inproc struct {
	mu        sync.Mutex
	listeners map[string]*inprocListener // guarded by mu
	next      int                        // guarded by mu
	pool      *Pool
}

// NewInproc returns a fresh in-process network namespace.
func NewInproc() *Inproc {
	return &Inproc{listeners: make(map[string]*inprocListener)}
}

// NewPooledInproc is NewInproc with payload pooling. Messages still cross
// by reference — the transport itself never copies — so pooling here is
// purely the Get/Put cycle the runtime drives: a produced payload is
// handed over on Send, consumed at the receiver, recycled with
// PutPayload, and the next GetPayload returns the same buffer. The pool
// is the process's one payload pool, shared with every pooled tcp
// transport.
func NewPooledInproc() *Inproc {
	return &Inproc{listeners: make(map[string]*inprocListener), pool: &payloads}
}

func (t *Inproc) Name() string { return "inproc" }

// GetPayload / PutPayload implement PayloadPool (plain allocation when the
// namespace was built without a pool).
func (t *Inproc) GetPayload(n int) []byte { return t.pool.Get(n) }
func (t *Inproc) PutPayload(b []byte)     { t.pool.Put(b) }

func (t *Inproc) Listen(self int) (Listener, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	addr := "inproc-" + strconv.Itoa(t.next)
	l := &inprocListener{
		t:       t,
		addr:    addr,
		accepts: make(chan *inprocConn),
		done:    make(chan struct{}),
	}
	t.listeners[addr] = l
	return l, nil
}

func (t *Inproc) Dial(self int, addr string) (Conn, error) {
	t.mu.Lock()
	l := t.listeners[addr]
	t.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("transport: inproc dial %s: connection refused", addr)
	}
	ab := make(chan Message, inprocBuffer) // dialer -> listener
	ba := make(chan Message, inprocBuffer) // listener -> dialer
	dialer := &inprocConn{in: ba, out: ab, done: make(chan struct{})}
	accepted := &inprocConn{in: ab, out: ba, done: make(chan struct{})}
	dialer.peer, accepted.peer = accepted, dialer
	select {
	case l.accepts <- accepted:
		return dialer, nil
	case <-l.done:
		return nil, fmt.Errorf("transport: inproc dial %s: connection refused", addr)
	}
}

// inprocListener delivers accepted conns and — unlike a bare TCP listener —
// tears every accepted conn down with itself: closing the listener is the
// transport-level analogue of the process dying, so peers' sends fail
// instead of filling a half-open socket.
type inprocListener struct {
	t       *Inproc
	addr    string
	accepts chan *inprocConn
	done    chan struct{}

	mu       sync.Mutex
	accepted []*inprocConn // guarded by mu
	closed   bool          // guarded by mu
}

func (l *inprocListener) Accept() (Conn, error) {
	select {
	case c := <-l.accepts:
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			c.Close()
			return nil, ErrClosed
		}
		l.accepted = append(l.accepted, c)
		l.mu.Unlock()
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

func (l *inprocListener) Addr() string { return l.addr }

func (l *inprocListener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	conns := l.accepted
	l.accepted = nil
	l.mu.Unlock()

	l.t.mu.Lock()
	delete(l.t.listeners, l.addr)
	l.t.mu.Unlock()
	close(l.done)
	for _, c := range conns {
		c.Close()
	}
	return nil
}

// inprocConn is one end of a channel pair. The message channels are never
// closed (senders may still hold them); lifecycle rides the two done
// channels instead.
type inprocConn struct {
	in   chan Message
	out  chan Message
	done chan struct{}
	peer *inprocConn
	once sync.Once
}

func (c *inprocConn) Send(m Message) error {
	// Refuse outright once either end is down, even if buffer space
	// remains: a dead peer must surface as a send error, not a black hole.
	select {
	case <-c.done:
		return ErrClosed
	case <-c.peer.done:
		return fmt.Errorf("transport: inproc send: %w (peer closed)", ErrClosed)
	default:
	}
	select {
	case c.out <- m:
		return nil
	case <-c.done:
		return ErrClosed
	case <-c.peer.done:
		return fmt.Errorf("transport: inproc send: %w (peer closed)", ErrClosed)
	}
}

func (c *inprocConn) Recv() (Message, error) {
	select {
	case m := <-c.in:
		return m, nil
	case <-c.done:
		return Message{}, ErrClosed
	case <-c.peer.done:
		// Like TCP, bytes already in flight are delivered before EOF.
		select {
		case m := <-c.in:
			return m, nil
		default:
			return Message{}, fmt.Errorf("transport: inproc recv: %w (peer closed)", ErrClosed)
		}
	}
}

func (c *inprocConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return nil
}
