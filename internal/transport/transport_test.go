package transport

import (
	"bytes"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distredge/internal/network"
)

func testMessage(payload int) Message {
	m := Message{Image: 7, Volume: 3, Lo: 10, Hi: 42}
	if payload > 0 {
		m.Payload = make([]byte, payload)
		for i := range m.Payload {
			m.Payload[i] = byte(i)
		}
	}
	return m
}

// dialPair listens on tr, dials it and accepts the conn. The listener and
// the dialing end close with the test (closing a tcp listener closes the
// conns it accepted).
func dialPair(tb testing.TB, tr Transport) (ln Listener, conn, accepted Conn) {
	tb.Helper()
	ln, err := tr.Listen(0)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ln.Close() })
	acceptedCh := make(chan Conn, 1)
	go func() {
		c, _ := ln.Accept()
		acceptedCh <- c
	}()
	conn, err = tr.Dial(1, ln.Addr())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { conn.Close() })
	return ln, conn, <-acceptedCh
}

func sameMessage(a, b Message) bool {
	return a.Image == b.Image && a.Volume == b.Volume && a.Lo == b.Lo && a.Hi == b.Hi &&
		bytes.Equal(a.Payload, b.Payload)
}

// TestCodecRoundtrip checks the lossless codecs reproduce data chunks,
// empty payloads and control messages through one stateful stream.
func TestCodecRoundtrip(t *testing.T) {
	for _, codec := range []Codec{Binary(), Deflate()} {
		t.Run(codec.Name(), func(t *testing.T) {
			var buf bytes.Buffer
			enc := codec.NewEncoder(&buf)
			dec := codec.NewDecoder(&buf, new(Pool))
			msgs := []Message{
				testMessage(1024),
				testMessage(0),
				{Image: 2, Volume: VolHeartbeat, Lo: 5}, // heartbeat-shaped control message
				{Image: 9, Volume: VolInput, Lo: 0, Hi: 3, Payload: []byte{1, 2, 3}},
			}
			for _, want := range msgs {
				if err := enc.Encode(&want); err != nil {
					t.Fatalf("encode: %v", err)
				}
				var got Message
				if err := dec.Decode(&got); err != nil {
					t.Fatalf("decode: %v", err)
				}
				if !sameMessage(want, got) {
					t.Fatalf("roundtrip mismatch: sent %+v got %+v", want, got)
				}
			}
		})
	}
}

// TestBinaryCodecRejectsGarbage checks the binary decoder fails cleanly on
// an unknown tag instead of misframing the stream.
func TestBinaryCodecRejectsGarbage(t *testing.T) {
	dec := Binary().NewDecoder(bytes.NewReader([]byte{0xff, 1, 2, 3}), new(Pool))
	var m Message
	if err := dec.Decode(&m); err == nil || !strings.Contains(err.Error(), "unknown frame tag") {
		t.Fatalf("garbage tag decoded: %v", err)
	}
}

// TestTransportRoundtrip exercises listen/dial/send/recv and close
// semantics uniformly over the tcp and inproc transports.
func TestTransportRoundtrip(t *testing.T) {
	transports := map[string]func() Transport{
		"tcp+binary": func() Transport { return NewTCP(nil) },
		"inproc":     func() Transport { return NewInproc() },
	}
	for name, mk := range transports {
		t.Run(name, func(t *testing.T) {
			tr := mk()
			ln, err := tr.Listen(0)
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			acceptedCh := make(chan Conn, 1)
			go func() {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				acceptedCh <- c
			}()
			conn, err := tr.Dial(1, ln.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			accepted := <-acceptedCh
			defer accepted.Close()

			// Send owns the payload (tcp recycles it once written), so the
			// comparison is against an identical copy.
			want := testMessage(4096)
			if err := conn.Send(testMessage(4096)); err != nil {
				t.Fatal(err)
			}
			got, err := accepted.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if !sameMessage(want, got) {
				t.Fatalf("mismatch: %+v vs %+v", want, got)
			}

			// Concurrent sends on one conn must interleave whole frames.
			const senders, each = 8, 25
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < each; i++ {
						if err := conn.Send(testMessage(512)); err != nil {
							t.Errorf("concurrent send: %v", err)
							return
						}
					}
				}()
			}
			recvDone := make(chan struct{})
			go func() {
				defer close(recvDone)
				for i := 0; i < senders*each; i++ {
					m, err := accepted.Recv()
					if err != nil {
						t.Errorf("concurrent recv %d: %v", i, err)
						return
					}
					if len(m.Payload) != 512 {
						t.Errorf("frame torn: payload %d", len(m.Payload))
						return
					}
				}
			}()
			wg.Wait()
			select {
			case <-recvDone:
			case <-time.After(10 * time.Second):
				t.Fatal("receiver did not drain the concurrent sends")
			}
		})
	}
}

// TestListenerCloseKillsAcceptedConns checks the "process death" semantics
// both endpoints rely on for failure detection: after the listener closes,
// peers' sends fail rather than disappearing into a half-open connection,
// and fresh dials are refused.
func TestListenerCloseKillsAcceptedConns(t *testing.T) {
	for name, mk := range map[string]func() Transport{
		"tcp":    func() Transport { return NewTCP(nil) },
		"inproc": func() Transport { return NewInproc() },
	} {
		t.Run(name, func(t *testing.T) {
			tr := mk()
			ln, err := tr.Listen(0)
			if err != nil {
				t.Fatal(err)
			}
			go func() {
				for {
					if _, err := ln.Accept(); err != nil {
						return
					}
				}
			}()
			conn, err := tr.Dial(1, ln.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := conn.Send(testMessage(16)); err != nil {
				t.Fatalf("send before close: %v", err)
			}
			addr := ln.Addr()
			ln.Close()

			// The send failure may take a few round trips to surface on a
			// real socket (buffers absorb the first writes); it must
			// surface well before any heartbeat timeout would.
			deadline := time.Now().Add(5 * time.Second)
			for {
				if err := conn.Send(testMessage(16)); err != nil {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("sends to a closed listener's conn keep succeeding")
				}
				time.Sleep(time.Millisecond)
			}
			if _, err := tr.Dial(1, addr); err == nil {
				t.Fatal("dial to a closed listener must fail")
			}
		})
	}
}

// TestInprocRecvDrainsBeforeEOF checks in-flight messages are delivered
// after the peer closes, like bytes already on a TCP socket.
func TestInprocRecvDrainsBeforeEOF(t *testing.T) {
	tr := NewInproc()
	ln, err := tr.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	acceptedCh := make(chan Conn, 1)
	go func() {
		c, _ := ln.Accept()
		acceptedCh <- c
	}()
	conn, err := tr.Dial(1, ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	accepted := <-acceptedCh
	if err := conn.Send(testMessage(8)); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if m, err := accepted.Recv(); err != nil || len(m.Payload) != 8 {
		t.Fatalf("in-flight message lost: %v %v", m, err)
	}
	if _, err := accepted.Recv(); err == nil {
		t.Fatal("recv after drain must report the closed peer")
	}
	if err := accepted.Send(testMessage(8)); err == nil {
		t.Fatal("send to a closed peer must fail")
	}
}

// TestShapedChargesTraceLatency checks the shaped decorator makes payload
// sends take the trace-modelled wall time while control messages pass free.
func TestShapedChargesTraceLatency(t *testing.T) {
	// 1 Mbps constant, no I/O cost: 12_500 payload bytes = 0.1 model sec.
	net := &network.Network{
		Requester: network.Link{Trace: network.Constant(1)},
		Providers: []network.Link{{Trace: network.Constant(1)}, {Trace: network.Constant(1)}},
	}
	const timeScale = 0.5
	tr := NewShaped(NewInproc(), net, timeScale, 1)
	ln, err := tr.Listen(1)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		for {
			if _, err := c.Recv(); err != nil {
				return
			}
		}
	}()
	conn, err := tr.Dial(Requester, ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	start := time.Now()
	if err := conn.Send(testMessage(12_500)); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	want := 0.1 * timeScale // model latency x time scale
	if elapsed < time.Duration(0.8*want*float64(time.Second)) {
		t.Errorf("shaped send took %s, want >= ~%.0fms", elapsed, want*1e3)
	}

	start = time.Now()
	if err := conn.Send(Message{Volume: VolHeartbeat}); err != nil { // heartbeat: free
		t.Fatal(err)
	}
	if e := time.Since(start); e > time.Duration(0.5*want*float64(time.Second)) {
		t.Errorf("control message charged wire time: %s", e)
	}
}

// TestChaosDeterministicDrops checks the same seed yields the same drop
// pattern on a directed connection, and different seeds diverge.
func TestChaosDeterministicDrops(t *testing.T) {
	pattern := func(seed int64) string {
		tr := NewChaos(NewInproc(), ChaosConfig{Seed: seed, Drop: 0.5})
		ln, err := tr.Listen(1)
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		acceptedCh := make(chan Conn, 1)
		go func() {
			c, _ := ln.Accept()
			acceptedCh <- c
		}()
		conn, err := tr.Dial(0, ln.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		accepted := <-acceptedCh

		const n = 64
		for i := 0; i < n; i++ {
			if err := conn.Send(Message{Image: uint32(i), Payload: []byte{1}}); err != nil {
				t.Fatal(err)
			}
		}
		conn.Close()
		var got []byte
		for {
			m, err := accepted.Recv()
			if err != nil {
				break
			}
			got = append(got, byte(m.Image))
		}
		return string(got)
	}
	a, b := pattern(42), pattern(42)
	if a != b {
		t.Fatalf("same seed, different drop patterns: %q vs %q", a, b)
	}
	if len(a) == 0 || len(a) == 64 {
		t.Fatalf("drop probability 0.5 delivered %d of 64", len(a))
	}
	if c := pattern(43); c == a {
		t.Error("different seeds produced identical drop patterns")
	}
}

// countingPool counts the payload buffers its transport's pool hands out
// and gets back.
type countingPool struct {
	Transport
	gets, puts atomic.Int64
}

func (c *countingPool) GetPayload(n int) []byte {
	c.gets.Add(1)
	return GetPayload(c.Transport, n)
}

func (c *countingPool) PutPayload(b []byte) {
	c.puts.Add(1)
	RecyclePayload(c.Transport, b)
}

// TestChaosDropRecyclesPayload: Send owns the payload, so a chunk chaos
// drops goes back to the pool it came from instead of leaving it. Under
// Drop 1 the inner pool gets back every payload it handed out, and the
// heartbeat sent last is the first message to arrive.
func TestChaosDropRecyclesPayload(t *testing.T) {
	inner := &countingPool{Transport: NewInproc()}
	tr := NewChaos(inner, ChaosConfig{Seed: 1, Drop: 1})
	_, conn, accepted := dialPair(t, tr)
	const n = 32
	for i := 0; i < n; i++ {
		m := testMessage(0)
		m.Payload = GetPayload(tr, 512)
		if err := conn.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn.Send(Message{Volume: VolHeartbeat}); err != nil {
		t.Fatal(err)
	}
	if m, err := accepted.Recv(); err != nil || m.Volume != VolHeartbeat {
		t.Fatalf("first delivery %+v (%v), want the heartbeat: every data chunk is dropped", m, err)
	}
	if gets, puts := inner.gets.Load(), inner.puts.Load(); gets != n || puts != n {
		t.Errorf("pool handed out %d payloads and got %d back, want %d and %d", gets, puts, n, n)
	}
}

// TestChaosIsolatePartitions checks Isolate fails sends and dials in both
// directions and Heal restores them.
func TestChaosIsolatePartitions(t *testing.T) {
	tr := NewChaos(NewInproc(), ChaosConfig{Seed: 1})
	ln, err := tr.Listen(1)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				for {
					if _, err := c.Recv(); err != nil {
						return
					}
				}
			}()
		}
	}()
	conn, err := tr.Dial(0, ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(testMessage(4)); err != nil {
		t.Fatal(err)
	}
	tr.Isolate(1)
	if err := conn.Send(testMessage(4)); err == nil {
		t.Fatal("send to isolated device must fail")
	}
	if _, err := tr.Dial(0, ln.Addr()); err == nil {
		t.Fatal("dial to isolated device must fail")
	}
	tr.Heal(1)
	if err := conn.Send(testMessage(4)); err != nil {
		t.Fatalf("send after heal: %v", err)
	}
}
