package transport

import (
	"bufio"
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"distredge/internal/network"
)

// writeCountConn is a fake net.Conn that records every Write syscall the
// buffered sender would make, so tests can assert how many socket writes a
// burst of sends actually produced.
type writeCountConn struct {
	mu     sync.Mutex
	writes int
	first  int // bytes of the first write
	buf    bytes.Buffer
}

func (c *writeCountConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.writes == 0 {
		c.first = len(p)
	}
	c.writes++
	return c.buf.Write(p)
}

func (c *writeCountConn) writeCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes
}

func (c *writeCountConn) bytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.buf.Bytes()...)
}

func (c *writeCountConn) Read(p []byte) (int, error)         { select {} }
func (c *writeCountConn) Close() error                       { return nil }
func (c *writeCountConn) LocalAddr() net.Addr                { return nil }
func (c *writeCountConn) RemoteAddr() net.Addr               { return nil }
func (c *writeCountConn) SetDeadline(t time.Time) error      { return nil }
func (c *writeCountConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *writeCountConn) SetWriteDeadline(t time.Time) error { return nil }

// sendSideConn builds a tcpConn over the fake socket so flush behaviour is
// observable write by write. hint > 0 sizes its buffers as SetBufferHint
// does for a deployment whose largest chunk is hint bytes.
func sendSideConn(hint int) (*tcpConn, *writeCountConn) {
	tr := NewTCP(nil).(*tcpTransport)
	tr.SetBufferHint(hint)
	fake := &writeCountConn{}
	return newTCPConn(fake, tr), fake
}

// decodeAll decodes every frame in the captured wire bytes.
func decodeAll(t *testing.T, wire []byte) []Message {
	t.Helper()
	dec := Binary().NewDecoder(bytes.NewReader(wire), new(Pool))
	var out []Message
	for {
		var m Message
		if err := dec.Decode(&m); err != nil {
			return out
		}
		out = append(out, m)
	}
}

// TestSendBufferedCoalescesWrites checks the tentpole behaviour: a burst of
// small buffered sends produces zero socket writes until Flush, which ships
// all frames intact in one write.
func TestSendBufferedCoalescesWrites(t *testing.T) {
	conn, fake := sendSideConn(0)
	const n = 10
	for i := 0; i < n; i++ {
		m := testMessage(256)
		m.Image = uint32(i)
		if err := conn.SendBuffered(m); err != nil {
			t.Fatalf("SendBuffered %d: %v", i, err)
		}
	}
	if got := fake.writeCount(); got != 0 {
		t.Fatalf("buffered sends hit the socket %d times before Flush", got)
	}
	if err := conn.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got := fake.writeCount(); got != 1 {
		t.Fatalf("flush made %d writes, want 1", got)
	}
	msgs := decodeAll(t, fake.bytes())
	if len(msgs) != n {
		t.Fatalf("decoded %d frames, want %d", len(msgs), n)
	}
	for i, m := range msgs {
		want := testMessage(256)
		want.Image = uint32(i)
		if !sameMessage(want, m) {
			t.Fatalf("frame %d corrupted: %+v", i, m)
		}
	}
	// A second Flush with nothing pending must not touch the socket.
	if err := conn.Flush(); err != nil {
		t.Fatalf("idempotent Flush: %v", err)
	}
	if got := fake.writeCount(); got != 1 {
		t.Fatalf("empty Flush wrote (writes=%d)", got)
	}
}

// TestSendBufferedSpillsAtByteThreshold checks a long burst cannot defer
// the wire indefinitely: once coalesceFlushBytes accumulate, the buffered
// path flushes on its own. The frames are sized so that exactly eight of
// them reach the threshold while still fitting the largest conn buffer, so
// the one write holds whole frames: the spill, not a full buffer, sent it.
func TestSendBufferedSpillsAtByteThreshold(t *testing.T) {
	const frames = 8
	conn, fake := sendSideConn(coalesceFlushBytes)
	if got := conn.bw.Size(); got != maxBufferBytes {
		t.Fatalf("hinted buffer %d, want the %d-byte ceiling", got, maxBufferBytes)
	}
	for i := 1; i <= frames; i++ {
		// A payload per send: each one's ownership ends in the pool.
		if err := conn.SendBuffered(testMessage(coalesceFlushBytes/frames - chunkHeaderLen)); err != nil {
			t.Fatalf("SendBuffered: %v", err)
		}
		if got, want := fake.writeCount(), i/frames; got != want {
			t.Fatalf("after %d buffered sends: %d writes, want %d", i, got, want)
		}
	}
	if fake.first != coalesceFlushBytes {
		t.Fatalf("spill wrote %d bytes, want the %d-byte threshold", fake.first, coalesceFlushBytes)
	}
	if got := len(decodeAll(t, fake.bytes())); got != frames {
		t.Fatalf("spill carried %d whole frames, want %d", got, frames)
	}
}

// TestPlainSendFlushesCoalescedBacklog checks a concurrent plain Send (a
// heartbeat sharing the conn) pushes any frames a coalescing sender left
// buffered — nothing can sit behind a flushed later message.
func TestPlainSendFlushesCoalescedBacklog(t *testing.T) {
	conn, fake := sendSideConn(0)
	if err := conn.SendBuffered(testMessage(64)); err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(Message{Image: 1, Volume: VolHeartbeat}); err != nil {
		t.Fatal(err)
	}
	msgs := decodeAll(t, fake.bytes())
	if len(msgs) != 2 {
		t.Fatalf("plain Send left buffered frame unflushed: %d frames on wire", len(msgs))
	}
}

// TestCoalescerQueueDrainFlush drives the Coalescer the way a runtime
// destSender does: more=true while backlog remains defers everything,
// more=false flushes the whole burst in one write.
func TestCoalescerQueueDrainFlush(t *testing.T) {
	conn, fake := sendSideConn(0)
	co := NewCoalescer(conn)
	const n = 6
	for i := 0; i < n-1; i++ {
		if err := co.Send(testMessage(512), true); err != nil {
			t.Fatalf("coalesced send %d: %v", i, err)
		}
	}
	if got := fake.writeCount(); got != 0 {
		t.Fatalf("coalescer flushed with backlog pending (%d writes)", got)
	}
	if err := co.Send(testMessage(512), false); err != nil {
		t.Fatalf("draining send: %v", err)
	}
	if got := fake.writeCount(); got != 1 {
		t.Fatalf("queue drain made %d writes, want 1", got)
	}
	if msgs := decodeAll(t, fake.bytes()); len(msgs) != n {
		t.Fatalf("decoded %d frames, want %d", len(msgs), n)
	}
}

// TestCoalescerMessageCap checks an endless backlog still flushes every
// coalesceMaxMessages sends.
func TestCoalescerMessageCap(t *testing.T) {
	conn, fake := sendSideConn(0)
	co := NewCoalescer(conn)
	for i := 0; i < coalesceMaxMessages; i++ {
		if err := co.Send(testMessage(16), true); err != nil {
			t.Fatal(err)
		}
	}
	if got := fake.writeCount(); got != 1 {
		t.Fatalf("message cap produced %d writes, want exactly 1", got)
	}
	// Explicit Flush with an empty batch is a no-op.
	if err := co.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := fake.writeCount(); got != 1 {
		t.Fatalf("empty Coalescer.Flush wrote (writes=%d)", got)
	}
}

// TestCoalescerFallsBackToPlainSend checks conns without BatchConn (inproc)
// deliver immediately through a Coalescer even with more=true — decorated
// and channel transports keep their per-message semantics.
func TestCoalescerFallsBackToPlainSend(t *testing.T) {
	tr := NewInproc()
	ln, err := tr.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	acceptedCh := make(chan Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			acceptedCh <- c
		}
	}()
	conn, err := tr.Dial(1, ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	accepted := <-acceptedCh
	defer accepted.Close()

	co := NewCoalescer(conn)
	want := testMessage(1024)
	if err := co.Send(want, true); err != nil { // more=true: would defer on tcp
		t.Fatal(err)
	}
	got, err := accepted.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !sameMessage(want, got) {
		t.Fatalf("fallback path corrupted message: %+v", got)
	}
}

// TestBufferHintSizesConns checks SetBufferHint resolution order and
// clamping, and that the decorators forward the hint to the inner tcp
// transport.
func TestBufferHintSizesConns(t *testing.T) {
	tr := NewTCP(nil).(*tcpTransport)
	if got := tr.bufBytes(); got != defaultBufferBytes {
		t.Fatalf("unhinted buffer %d, want default %d", got, defaultBufferBytes)
	}
	tr.SetBufferHint(48 << 10) // under the ceiling: one chunk plus its header
	if got := tr.bufBytes(); got != 48<<10+chunkHeaderLen {
		t.Fatalf("hinted buffer %d, want chunk+header %d", got, 48<<10+chunkHeaderLen)
	}
	tr.SetBufferHint(16) // degenerate plan: clamp up
	if got := tr.bufBytes(); got != minBufferBytes {
		t.Fatalf("tiny hint gave %d, want clamp %d", got, minBufferBytes)
	}
	// The ceiling is one spill-threshold chunk plus its header: buffers
	// coalesce small frames, a larger chunk bypasses them.
	if maxBufferBytes != coalesceFlushBytes+chunkHeaderLen {
		t.Fatalf("ceiling %d, want spill threshold + header %d", maxBufferBytes, coalesceFlushBytes+chunkHeaderLen)
	}
	for _, hint := range []int{coalesceFlushBytes, 256 << 10, 64 << 20} {
		tr.SetBufferHint(hint)
		if got := tr.bufBytes(); got != maxBufferBytes {
			t.Fatalf("hint %d gave %d, want ceiling %d", hint, got, maxBufferBytes)
		}
	}

	// Decorators forward to the inner transport.
	inner := NewTCP(nil).(*tcpTransport)
	testNet := &network.Network{
		Requester: network.Link{Trace: network.Constant(1)},
		Providers: []network.Link{{Trace: network.Constant(1)}},
	}
	shaped := NewShaped(NewChaos(inner, ChaosConfig{}), testNet, 1, 1)
	SetBufferHint(shaped, 40<<10)
	if got := inner.bufBytes(); got != 40<<10+chunkHeaderLen {
		t.Fatalf("decorator chain dropped buffer hint: inner=%d", got)
	}
	// And the helper is a no-op on transports without buffers.
	SetBufferHint(NewInproc(), 1<<20)
}

// TestSizedBufferSingleWritePerChunk checks what the buffer hint buys: a
// chunk up to the spill threshold — much larger than the 4 KiB floor —
// reaches the socket in one write instead of splitting into header-flush +
// direct-write fragments (which is why the ceiling includes a header), and
// a chunk past the ceiling costs at most one buffer's worth of copying: one
// buffer-sized write, then the rest straight from the payload, through
// buffers no larger than the ceiling.
func TestSizedBufferSingleWritePerChunk(t *testing.T) {
	const chunk = 64 << 10

	tr := NewTCP(nil).(*tcpTransport)
	tr.SetBufferHint(chunk)
	fake := &writeCountConn{}
	conn := newTCPConn(fake, tr)
	if err := conn.Send(testMessage(chunk)); err != nil {
		t.Fatal(err)
	}
	if got := fake.writeCount(); got != 1 {
		t.Fatalf("hinted conn made %d writes for one %d-byte chunk, want 1", got, chunk)
	}

	// Counter-check: an unhinted conn's default buffer is smaller than the
	// chunk, so the chunk necessarily splits.
	small := NewTCP(nil).(*tcpTransport)
	fakeSmall := &writeCountConn{}
	connSmall := newTCPConn(fakeSmall, small)
	if err := connSmall.Send(testMessage(chunk)); err != nil {
		t.Fatal(err)
	}
	if got := fakeSmall.writeCount(); got < 2 {
		t.Fatalf("%d-byte-buffer conn made %d writes for a %d-byte chunk, expected a split", defaultBufferBytes, got, chunk)
	}

	// The large case: a 1 MiB chunk on a conn hinted 1 MiB.
	const large = 1 << 20
	big := NewTCP(nil).(*tcpTransport)
	big.SetBufferHint(large)
	fakeBig := &writeCountConn{}
	connBig := newTCPConn(fakeBig, big)
	want := testMessage(large)
	if err := connBig.Send(want); err != nil {
		t.Fatal(err)
	}
	if got := fakeBig.writeCount(); got > 2 {
		t.Fatalf("hinted conn made %d writes for one %d-byte chunk, want <= 2", got, large)
	}
	if fakeBig.first > maxBufferBytes {
		t.Fatalf("first write of a %d-byte chunk was %d bytes, want <= the %d-byte ceiling", large, fakeBig.first, maxBufferBytes)
	}
	if msgs := decodeAll(t, fakeBig.bytes()); len(msgs) != 1 || !sameMessage(want, msgs[0]) {
		t.Fatalf("split write corrupted the frame: decoded %d messages", len(msgs))
	}
	br := connBig.dec.(*binaryDecoder).r.(*bufio.Reader)
	if w, r := connBig.bw.Size(), br.Size(); w > maxBufferBytes || r > maxBufferBytes {
		t.Fatalf("conn hinted %d holds a %d-byte writer and a %d-byte reader, want both <= %d", large, w, r, maxBufferBytes)
	}
}
