package transport

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// largeFramePattern fills (or checks) payload i's distinct contents.
func largeFramePattern(i, j int) byte { return byte(i*131 + j*7 + j>>8) }

// TestLargeFramesOverSocket drives payloads on both sides of the buffer
// ceiling through a real localhost socket, pooled and through a Coalescer,
// while a second goroutine interleaves control frames with plain Send on
// the same conn. Past the ceiling bufio writes from and reads into the
// pooled payload directly, so this is where a frame torn by an interleaved
// send, a payload recycled before its bytes left, or a short direct read
// would show: every message must arrive once, in order per sender,
// byte-identical, Lag intact, with every payload buffer accounted for.
func TestLargeFramesOverSocket(t *testing.T) {
	sizes := []int{maxBufferBytes - 1, maxBufferBytes, maxBufferBytes + 1, 1 << 20, 3<<20 + 3}
	const rounds = 3 // later rounds run on recycled buffers
	const beats = 40
	nData := rounds * len(sizes)

	tr := NewTCP(nil)
	SetBufferHint(tr, 3<<20+3)
	pp := tr.(PayloadPool)
	_, conn, accepted := dialPair(t, tr)

	// ledger counts payload buffers this test owns: +1 on GetPayload and
	// on a Recv that carries one, -1 on Send (ownership moves to the
	// transport) and on PutPayload.
	var ledger atomic.Int64
	var senders sync.WaitGroup
	senders.Add(2)
	go func() { // data: the queue-draining sender
		defer senders.Done()
		co := NewCoalescer(conn)
		for i := 0; i < nData; i++ {
			p := pp.GetPayload(sizes[i%len(sizes)])
			ledger.Add(1)
			for j := range p {
				p[j] = largeFramePattern(i, j)
			}
			m := Message{Image: uint32(i), Volume: 2, Lo: int32(i), Hi: int32(len(p)), Lag: time.Duration(i+1) * time.Microsecond, Payload: p}
			ledger.Add(-1)
			if err := co.Send(m, i+1 < nData); err != nil {
				t.Errorf("data send %d: %v", i, err)
				return
			}
		}
	}()
	go func() { // control: heartbeats sharing the conn
		defer senders.Done()
		for i := 0; i < beats; i++ {
			if err := conn.Send(Message{Image: uint32(i), Volume: VolHeartbeat, Lo: 5}); err != nil {
				t.Errorf("control send %d: %v", i, err)
				return
			}
		}
	}()

	nextData, nextBeat := 0, 0
	for nextData < nData || nextBeat < beats {
		m, err := accepted.Recv()
		if err != nil {
			t.Fatalf("recv after %d data and %d control frames: %v", nextData, nextBeat, err)
		}
		if m.control() {
			if m.Image != uint32(nextBeat) || m.Volume != VolHeartbeat || m.Lo != 5 || m.Lag != 0 {
				t.Fatalf("control frame %d arrived as %+v", nextBeat, m)
			}
			nextBeat++
			continue
		}
		ledger.Add(1)
		i := nextData
		want := sizes[i%len(sizes)]
		if m.Image != uint32(i) || m.Volume != 2 || m.Lo != int32(i) || m.Hi != int32(want) || len(m.Payload) != want {
			t.Fatalf("data frame %d (%d bytes) arrived as image=%d volume=%d lo=%d hi=%d len=%d", i, want, m.Image, m.Volume, m.Lo, m.Hi, len(m.Payload))
		}
		if m.Lag != time.Duration(i+1)*time.Microsecond {
			t.Fatalf("data frame %d: lag %s, want %s", i, m.Lag, time.Duration(i+1)*time.Microsecond)
		}
		for j, b := range m.Payload {
			if b != largeFramePattern(i, j) {
				t.Fatalf("data frame %d (%d bytes) corrupted at byte %d", i, want, j)
			}
		}
		pp.PutPayload(m.Payload)
		ledger.Add(-1)
		nextData++
	}
	senders.Wait()
	if n := ledger.Load(); n != 0 {
		t.Errorf("payload ledger %d at the end, want 0", n)
	}
}

// TestLargeSendToClosedPeerFails re-pins the kill semantics on the
// direct-write path: after the peer's listener closes, sends of chunks far
// past the buffer ceiling fail — by the second at the latest, since the
// first may fit the kernel's socket buffer before the reset comes back.
func TestLargeSendToClosedPeerFails(t *testing.T) {
	const chunk = 1 << 20
	tr := NewTCP(nil)
	SetBufferHint(tr, chunk)
	ln, conn, accepted := dialPair(t, tr)
	if err := conn.Send(testMessage(16)); err != nil {
		t.Fatalf("send before close: %v", err)
	}
	if _, err := accepted.Recv(); err != nil {
		t.Fatalf("recv before close: %v", err)
	}
	ln.Close()
	for i := 1; i <= 2; i++ {
		if err := conn.Send(testMessage(chunk)); err != nil {
			return
		}
	}
	t.Fatal("two 1 MiB sends to a closed listener's conn both succeeded")
}

// TestFramePastEagerLimitOverSocket: a 9 MiB payload, past the size the
// decoder allocates up front, crosses a pooled localhost socket intact.
func TestFramePastEagerLimitOverSocket(t *testing.T) {
	const n = 9 << 20
	tr := NewTCP(nil)
	pp := tr.(PayloadPool)
	_, conn, accepted := dialPair(t, tr)
	p := pp.GetPayload(n)
	for j := range p {
		p[j] = largeFramePattern(1, j)
	}
	sent := make(chan error, 1)
	go func() { sent <- conn.Send(Message{Image: 9, Volume: 1, Lo: 2, Hi: 3, Payload: p}) }()
	m, err := accepted.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if m.Image != 9 || m.Volume != 1 || m.Lo != 2 || m.Hi != 3 || len(m.Payload) != n {
		t.Fatalf("9 MiB frame arrived as image=%d volume=%d lo=%d hi=%d len=%d", m.Image, m.Volume, m.Lo, m.Hi, len(m.Payload))
	}
	for j, b := range m.Payload {
		if b != largeFramePattern(1, j) {
			t.Fatalf("9 MiB frame corrupted at byte %d", j)
		}
	}
	pp.PutPayload(m.Payload)
}
