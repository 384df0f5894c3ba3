package transport

import (
	"bytes"
	"testing"
	"time"
)

// TestPoolSizeClasses pins the bucket arithmetic: a Get after a Put of the
// same size class reuses the buffer, and a buffer never shrinks below the
// requested length.
func TestPoolSizeClasses(t *testing.T) {
	p := new(Pool)
	b := p.Get(1000)
	if len(b) != 1000 || cap(b) < 1000 {
		t.Fatalf("Get(1000): len=%d cap=%d", len(b), cap(b))
	}
	// sync.Pool drops a quarter of Puts under the race detector (and any
	// Put across two GCs), so one Put/Get cycle is not guaranteed to reuse:
	// the reuse holds if some cycle out of 32 hands the put buffer back
	// (all 32 dropped: 4^-32).
	reused := false
	b2 := b
	for attempt := 0; attempt < 32 && !reused; attempt++ {
		p.Put(b2)
		next := p.Get(900) // same power-of-two class as 1000
		if len(next) != 900 || cap(next) < 1000 {
			t.Fatalf("Get(900): len=%d cap=%d", len(next), cap(next))
		}
		//distlint:allow payloadown -- this test pins that Put feeds the next same-class Get; comparing base pointers is the point
		reused = &next[0] == &b2[0]
		b2 = next
	}
	if !reused {
		t.Error("same-class Get after Put never reused the buffer in 32 cycles")
	}
	if got := p.Get(0); got != nil {
		t.Errorf("Get(0) = %v, want nil", got)
	}
	p.Put(nil) // must not panic
	var nilPool *Pool
	if b := nilPool.Get(8); len(b) != 8 {
		t.Errorf("nil pool Get(8): len=%d", len(b))
	}
	nilPool.Put(b2) // must not panic
}

// TestPoolGetPutAllocatesNothing: a Get/Put round trip within one size class
// allocates nothing once the class holds a buffer. A bare []byte filed in a
// sync.Pool is boxed into an interface — one allocation per Put — so the
// buckets hold recycled *[]byte holders instead.
func TestPoolGetPutAllocatesNothing(t *testing.T) {
	p := new(Pool)
	p.Put(p.Get(1000))
	allocs := testing.AllocsPerRun(1000, func() {
		b := p.Get(1000)
		b[0] = 1
		p.Put(b)
	})
	if allocs != 0 && !raceEnabled {
		t.Errorf("Pool Get/Put allocates %.2f times per round trip, want 0", allocs)
	}
}

// TestPooledTCPMessageAllocatesNothing: a pooled data chunk through a real
// loopback conn pair — drawn from the pool, sent with Send or with
// SendBuffered and Flush, received with Recv and handed back — allocates
// nothing. The conn encodes from and decodes into messages it owns: a local
// message passed by address through the Encoder / Decoder interface escapes
// to the heap on every call.
func TestPooledTCPMessageAllocatesNothing(t *testing.T) {
	tr := NewPooledTCP(nil)
	pp := tr.(PayloadPool)
	_, conn, accepted := dialPair(t, tr)
	bc := conn.(BatchConn)
	buffered := func(m Message) error {
		if err := bc.SendBuffered(m); err != nil {
			return err
		}
		return bc.Flush()
	}
	for _, mode := range []struct {
		name string
		send func(Message) error
	}{{"Send", conn.Send}, {"SendBuffered+Flush", buffered}} {
		t.Run(mode.name, func(t *testing.T) {
			roundtrip := func() {
				m := Message{Image: 3, Volume: 2, Hi: 16, Lag: time.Millisecond, Payload: pp.GetPayload(1024)}
				m.Payload[0] = 9
				if err := mode.send(m); err != nil {
					t.Fatal(err)
				}
				got, err := accepted.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if got.Image != 3 || got.Lag != time.Millisecond || len(got.Payload) != 1024 || got.Payload[0] != 9 {
					t.Fatalf("message damaged in transit: %+v", got)
				}
				pp.PutPayload(got.Payload)
			}
			allocs := testing.AllocsPerRun(500, roundtrip)
			if allocs != 0 && !raceEnabled {
				t.Errorf("pooled tcp message allocates %.2f times, want 0", allocs)
			}
		})
	}
}

// TestPooledTCPRoundtripContent streams messages of interleaved sizes and
// distinct contents over a pooled TCP conn, recycling every received
// payload: reuse must never corrupt a later message.
func TestPooledTCPRoundtripContent(t *testing.T) {
	for _, codec := range []Codec{nil, Deflate()} {
		name := "binary"
		if codec != nil {
			name = codec.Name()
		}
		t.Run(name, func(t *testing.T) {
			tr := NewPooledTCP(codec)
			pp := tr.(PayloadPool)
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
			defer conn.Close()
			accepted := <-acceptedCh

			sizes := []int{1024, 64, 4096, 64, 1024, 0, 333}
			for i, n := range sizes {
				payload := pp.GetPayload(n)
				for j := range payload {
					payload[j] = byte(i*31 + j)
				}
				want := append([]byte(nil), payload...)
				m := Message{Image: uint32(i), Volume: 2, Lo: 0, Hi: int32(n), Payload: payload}
				if err := conn.Send(m); err != nil {
					t.Fatal(err)
				}
				got, err := accepted.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if got.Image != uint32(i) || !bytes.Equal(got.Payload, want) {
					t.Fatalf("message %d corrupted: image=%d len=%d", i, got.Image, len(got.Payload))
				}
				pp.PutPayload(got.Payload)
			}
		})
	}
}

// TestPooledInprocReusesBuffer pins the by-reference cycle: a payload sent
// over pooled inproc, consumed and recycled is the very buffer the next
// GetPayload returns.
func TestPooledInprocReusesBuffer(t *testing.T) {
	tr := NewPooledInproc()
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
	defer conn.Close()
	accepted := <-acceptedCh

	b := tr.GetPayload(512)
	if err := conn.Send(Message{Image: 1, Volume: 0, Payload: b}); err != nil {
		t.Fatal(err)
	}
	got, err := accepted.Recv()
	if err != nil {
		t.Fatal(err)
	}
	//distlint:allow payloadown -- inproc hands payloads over by reference and this test pins that; nothing recycles b concurrently here
	if &got.Payload[0] != &b[0] {
		t.Fatal("inproc must hand the payload over by reference")
	}
	// sync.Pool deliberately drops a fraction of Puts when the race
	// detector is on, so a single Put/Get cycle is not guaranteed to
	// reuse — retry a bounded number of times before declaring the
	// recycling path broken.
	reused := false
	cur := got.Payload
	for attempt := 0; attempt < 32 && !reused; attempt++ {
		tr.PutPayload(cur)
		next := tr.GetPayload(512)
		//distlint:allow payloadown -- single-goroutine Put/Get cycle probing recycling; the base-pointer compare is the assertion
		reused = &next[0] == &cur[0]
		cur = next
	}
	if !reused {
		t.Error("recycled payload was not reused by the next GetPayload")
	}
}

// TestDeflateCodecRoundtrip checks content fidelity through the
// compressing codec: data chunks (compressible and empty), control
// messages passed through uncompressed, and a multi-message stream through one
// stateful encoder/decoder pair.
func TestDeflateCodecRoundtrip(t *testing.T) {
	codec := Deflate()
	var buf bytes.Buffer
	enc := codec.NewEncoder(&buf)
	dec := codec.NewDecoder(&buf, nil)
	msgs := []Message{
		testMessage(1024),
		testMessage(0),
		{Image: 3, Volume: VolHeartbeat, Lo: 7}, // control (heartbeat-shaped)
		testMessage(1 << 16),
	}
	for i, m := range msgs {
		if err := enc.Encode(&m); err != nil {
			t.Fatalf("encode %d: %v", i, err)
		}
		var out Message
		if err := dec.Decode(&out); err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if out.Image != m.Image || out.Volume != m.Volume || out.Lo != m.Lo || out.Hi != m.Hi {
			t.Fatalf("message %d header mismatch: %+v != %+v", i, out, m)
		}
		if !bytes.Equal(out.Payload, m.Payload) {
			t.Fatalf("message %d payload mismatch: %d vs %d bytes", i, len(out.Payload), len(m.Payload))
		}
	}
}

// TestDeflateCompresses pins that the wire actually shrinks for the
// float-activation-shaped payloads the runtime ships — the whole point of
// paying the CPU.
func TestDeflateCompresses(t *testing.T) {
	m := testMessage(64 << 10)
	var plain, compressed bytes.Buffer
	if err := Binary().NewEncoder(&plain).Encode(&m); err != nil {
		t.Fatal(err)
	}
	if err := Deflate().NewEncoder(&compressed).Encode(&m); err != nil {
		t.Fatal(err)
	}
	if compressed.Len() >= plain.Len()/2 {
		t.Errorf("deflate frame %dB not < half of plain %dB", compressed.Len(), plain.Len())
	}
}

// TestDeflateCorruptPayloadErrors feeds a binary frame whose payload is
// not a DEFLATE stream: Decode must fail cleanly, not panic or hang.
func TestDeflateCorruptPayloadErrors(t *testing.T) {
	var buf bytes.Buffer
	m := testMessage(256) // raw bytes, never compressed
	if err := Binary().NewEncoder(&buf).Encode(&m); err != nil {
		t.Fatal(err)
	}
	var out Message
	if err := Deflate().NewDecoder(&buf, nil).Decode(&out); err == nil {
		t.Error("decoding a non-deflate payload must error")
	}
}

// TestParsePooledTransportsImplementPayloadPool keeps the serving stacks'
// pooling wired: every stack ParseTransport can build that is meant to
// pool must implement the PayloadPool interface.
func TestParsePooledTransportsImplementPayloadPool(t *testing.T) {
	for _, tr := range []Transport{
		NewPooledTCP(nil),
		NewPooledTCP(Deflate()),
		NewPooledTCP(Quant(QuantInt8, nil)),
		NewPooledTCP(Quant(QuantInt8, Deflate())),
		NewPooledInproc(),
	} {
		if _, ok := tr.(PayloadPool); !ok {
			t.Errorf("%s does not implement PayloadPool", tr.Name())
		}
	}
	// Decorators forward pooling to their inner transport.
	shaped := Transport(NewShaped(NewPooledInproc(), nil, 1, 1))
	if _, ok := shaped.(PayloadPool); !ok {
		t.Error("shaped decorator does not forward PayloadPool")
	}
	chaos := Transport(NewChaos(NewPooledInproc(), ChaosConfig{}))
	if _, ok := chaos.(PayloadPool); !ok {
		t.Error("chaos decorator does not forward PayloadPool")
	}
}
