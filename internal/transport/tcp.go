package transport

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
)

const (
	// defaultBufferBytes sizes a conn's bufio reader/writer when no buffer
	// hint was given. 32 KiB covers the typical activation
	// chunk of the evaluation models; SetBufferHint overrides it per
	// deployment so a planned chunk up to the spill threshold never splits
	// across writes.
	defaultBufferBytes = 32 << 10

	// coalesceFlushBytes is the byte threshold at which a buffered send
	// flushes even though more messages are queued behind it: past this the
	// write is syscall-efficient already, and flushing bounds how much a
	// burst can sit unsent in the bufio buffer.
	coalesceFlushBytes = 64 << 10

	// minBufferBytes / maxBufferBytes clamp hint-derived buffer sizes. The
	// floor: a degenerate plan must not shrink buffers to a handful of
	// frames. The ceiling: conn buffers exist to coalesce small frames into
	// one write, and nothing accumulates past the spill threshold, so a
	// buffer holds at most one threshold-sized chunk and its header (the
	// header is what keeps a 64 KiB chunk a single write). A larger chunk
	// takes the path bufio already has — at most one buffer's worth is
	// copied, the rest is written from and read into the payload directly —
	// where a buffer sized to the chunk would copy every byte twice (once
	// on each side) and pin 2 x chunk per conn times n^2 conns.
	minBufferBytes = 4 << 10
	maxBufferBytes = coalesceFlushBytes + chunkHeaderLen
)

// tcpTransport carries messages over localhost TCP sockets with a
// pluggable codec, the process payload pool or none (nil = plain
// allocation), and adaptive flush coalescing on the buffered send path.
type tcpTransport struct {
	codec Codec
	pool  *Pool
	hint  atomic.Int64 // SetBufferHint: max chunk bytes of the deployment
}

// NewTCP returns the localhost TCP transport using the given codec
// (nil = Binary, the length-prefixed chunk codec). No payload pooling; see
// NewPooledTCP.
func NewTCP(codec Codec) Transport {
	if codec == nil {
		codec = Binary()
	}
	return &tcpTransport{codec: codec}
}

// NewPooledTCP is NewTCP with payload pooling: sent data payloads are
// recycled once serialised (the socket copy makes them dead the moment
// the send returns), and received payloads are decoded into pooled buffers
// the consumer hands back with PutPayload. Every pooled transport draws
// from the process's one payload pool, so the buffers a closed cluster
// leaves idle serve the next one.
func NewPooledTCP(codec Codec) Transport {
	t := NewTCP(codec).(*tcpTransport)
	t.pool = &payloads
	return t
}

func (t *tcpTransport) Name() string { return "tcp+" + t.codec.Name() }

// WireCodec exposes the codec frames actually cross the socket in, so a
// wrapping Shaped transport can charge post-codec bytes (quantized or
// compressed sizes) instead of raw payload bytes.
func (t *tcpTransport) WireCodec() Codec { return t.codec }

// GetPayload / PutPayload implement PayloadPool (plain allocation when the
// transport was built without a pool).
func (t *tcpTransport) GetPayload(n int) []byte { return t.pool.Get(n) }
func (t *tcpTransport) PutPayload(b []byte)     { t.pool.Put(b) }

// SetBufferHint implements BufferSizer: conns created after the call size
// their bufio buffers to hold one max-size chunk plus framing (up to
// maxBufferBytes), so a chunk that coalescing could hold reaches the socket
// in a single write instead of splitting into buffer-sized partial writes.
func (t *tcpTransport) SetBufferHint(maxChunkBytes int) {
	if maxChunkBytes > 0 {
		t.hint.Store(int64(maxChunkBytes))
	}
}

// bufBytes resolves the conn buffer size: the deployment hint (clamped),
// else the default.
func (t *tcpTransport) bufBytes() int {
	if h := t.hint.Load(); h > 0 {
		n := int(h) + chunkHeaderLen
		if n < minBufferBytes {
			n = minBufferBytes
		}
		if n > maxBufferBytes {
			n = maxBufferBytes
		}
		return n
	}
	return defaultBufferBytes
}

func (t *tcpTransport) Listen(self int) (Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &tcpListener{ln: ln, t: t}, nil
}

func (t *tcpTransport) Dial(self int, addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newTCPConn(c, t), nil
}

// tcpListener tracks accepted connections so Close tears them down with the
// listener: a closed endpoint looks like a dead process to its peers (their
// next send fails) instead of a half-open socket that swallows traffic.
type tcpListener struct {
	ln net.Listener
	t  *tcpTransport

	mu       sync.Mutex
	accepted []*tcpConn // guarded by mu
	closed   bool       // guarded by mu
}

func (l *tcpListener) Accept() (Conn, error) {
	c, err := l.ln.Accept()
	if err != nil {
		return nil, err
	}
	tc := newTCPConn(c, l.t)
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		tc.Close()
		return nil, ErrClosed
	}
	l.accepted = append(l.accepted, tc)
	l.mu.Unlock()
	return tc, nil
}

func (l *tcpListener) Addr() string { return l.ln.Addr().String() }

func (l *tcpListener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	conns := l.accepted
	l.accepted = nil
	l.mu.Unlock()
	err := l.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	return err
}

// tcpConn frames messages over one socket. Sends are serialised by a mutex
// (the compute results and heartbeats of one provider share its result
// link). Send flushes before returning so lone messages and errors stay
// synchronous; SendBuffered defers the flush to the caller's Flush (or to
// the coalesceFlushBytes spill threshold), which is how a queue-draining
// sender shares one syscall across a burst of small chunks.
//
// The conn encodes from and decodes into messages it owns (out, in): a
// message passed by address through the Encoder / Decoder interface escapes,
// so a local one would be a heap allocation on every send and every receive.
type tcpConn struct {
	c    net.Conn
	pool *Pool

	sendMu  sync.Mutex
	bw      *bufio.Writer // guarded by sendMu
	enc     Encoder       // guarded by sendMu
	out     Message       // guarded by sendMu; the message being encoded
	pending bool          // guarded by sendMu; encoded frames await a flush

	recvMu sync.Mutex
	dec    Decoder
	in     Message // guarded by recvMu; the message being decoded
}

func newTCPConn(c net.Conn, t *tcpTransport) *tcpConn {
	size := t.bufBytes()
	bw := bufio.NewWriterSize(c, size)
	return &tcpConn{
		c:    c,
		pool: t.pool,
		bw:   bw,
		enc:  t.codec.NewEncoder(bw),
		dec:  t.codec.NewDecoder(bufio.NewReaderSize(c, size), t.pool),
	}
}

func (c *tcpConn) Send(m Message) error { return c.send(m, true) }

// SendBuffered implements BatchConn: the message is framed into the write
// buffer but only pushed to the socket once the buffer passes the spill
// threshold (or on Flush / a plain Send). An encode error is returned
// immediately; a deferred socket error surfaces on the flushing call.
func (c *tcpConn) SendBuffered(m Message) error { return c.send(m, false) }

// send frames m into the write buffer and flushes if asked to or past the
// spill threshold. The frame is encoded from the conn's own message, which
// is dropped afterwards so the conn never pins a payload whose ownership has
// moved on; m itself, whose payload field no codec rewrote, supplies the
// payload to recycle: once encoded its bytes live in the bufio buffer or on
// the socket, so ownership — transferred to the transport by the Send
// contract — ends here.
func (c *tcpConn) send(m Message, flush bool) error {
	c.sendMu.Lock()
	c.out = m
	err := c.enc.Encode(&c.out)
	c.out = Message{}
	if err == nil {
		c.pending = true
		if flush || c.bw.Buffered() >= coalesceFlushBytes {
			err = c.bw.Flush()
			c.pending = false
		}
	}
	c.sendMu.Unlock()
	if c.pool != nil && !m.control() {
		c.pool.Put(m.Payload)
	}
	return err
}

// Flush implements BatchConn: any frames SendBuffered left in the write
// buffer go to the socket in one write.
func (c *tcpConn) Flush() error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if !c.pending {
		return nil
	}
	c.pending = false
	return c.bw.Flush()
}

func (c *tcpConn) Recv() (Message, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	err := c.dec.Decode(&c.in)
	m := c.in
	// Zeroed for the next decode: the binary decoder reuses whatever payload
	// capacity it finds, and this buffer now belongs to the consumer.
	c.in = Message{}
	return m, err
}

func (c *tcpConn) Close() error { return c.c.Close() }
