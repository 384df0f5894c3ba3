package transport

import (
	"bytes"
	"fmt"
	"testing"
)

// BenchmarkChunkCodec measures encode+decode of one data chunk through a
// stateful stream for each codec and payload size — the hot path every
// activation row crosses on socket transports. The binary codec must not
// allocate, and neither must the quant encoders in steady state.
func BenchmarkChunkCodec(b *testing.B) {
	codecs := []Codec{
		Binary(), Deflate(),
		Quant(QuantInt8, nil), Quant(QuantFP16, nil), Quant(QuantInt8, Deflate()),
	}
	for _, codec := range codecs {
		for _, payload := range []int{1 << 10, 64 << 10, 1 << 20} {
			b.Run(fmt.Sprintf("%s/%dKiB", codec.Name(), payload>>10), func(b *testing.B) {
				var buf bytes.Buffer
				enc := codec.NewEncoder(&buf)
				dec := codec.NewDecoder(&buf, new(Pool))
				msg := testMessage(payload)
				var out Message
				b.SetBytes(int64(payload))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := enc.Encode(&msg); err != nil {
						b.Fatal(err)
					}
					if err := dec.Decode(&out); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkDeflateConnChurn measures a freshly dialled connection's first
// chunk: new encoder and decoder state, one 64 KiB message through them.
// The package-level flate pools make this cheap — without them every new
// conn paid a ~330 KB flate.Writer plus a ~50 KB decompressor allocation
// right here, multiplied by the n^2 links of an n-provider cluster.
func BenchmarkDeflateConnChurn(b *testing.B) {
	codec := Deflate()
	msg := testMessage(64 << 10)
	var out Message
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := codec.NewEncoder(&buf).Encode(&msg); err != nil {
			b.Fatal(err)
		}
		if err := codec.NewDecoder(&buf, new(Pool)).Decode(&out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInprocRoundtrip measures a send+recv pair over the in-process
// transport — the per-chunk overhead every inproc runtime test pays in
// place of a socket write. "fresh" allocates a payload per send (the
// pre-pooling serving path: the runtime makes one buffer per chunk);
// "pooled" cycles buffers through the payload pool the way the runtime
// now does, which is where the alloc drop shows.
func BenchmarkInprocRoundtrip(b *testing.B) {
	const payload = 64 << 10
	run := func(b *testing.B, tr *Inproc, next func() []byte, recycle func([]byte)) {
		ln, err := tr.Listen(0)
		if err != nil {
			b.Fatal(err)
		}
		defer ln.Close()
		acceptedCh := make(chan Conn, 1)
		go func() {
			c, _ := ln.Accept()
			acceptedCh <- c
		}()
		conn, err := tr.Dial(1, ln.Addr())
		if err != nil {
			b.Fatal(err)
		}
		defer conn.Close()
		accepted := <-acceptedCh
		msg := testMessage(0)
		b.SetBytes(payload)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			msg.Payload = next()
			if err := conn.Send(msg); err != nil {
				b.Fatal(err)
			}
			got, err := accepted.Recv()
			if err != nil {
				b.Fatal(err)
			}
			recycle(got.Payload)
		}
	}
	b.Run("fresh", func(b *testing.B) {
		run(b, NewInproc(),
			func() []byte { return make([]byte, payload) },
			func([]byte) {})
	})
	b.Run("pooled", func(b *testing.B) {
		tr := NewInproc()
		run(b, tr,
			func() []byte { return tr.GetPayload(payload) },
			tr.PutPayload)
	})
}

// BenchmarkTCPRoundtrip measures the same send+recv pair over a real
// localhost socket with each codec, so the inproc and codec numbers have a
// socket baseline to compare against. "binary" allocates a payload per
// send and drops what it receives, like the inproc benchmark's "fresh"
// row; "binary+pool" cycles payloads through the transport's pool (one
// GetPayload per send, one PutPayload per receive) — the serving-path
// pattern — and must show the per-chunk allocation disappearing.
func BenchmarkTCPRoundtrip(b *testing.B) {
	const payload = 64 << 10
	run := func(b *testing.B, tr Transport, next func() []byte, recycle func([]byte)) {
		_, conn, accepted := dialPair(b, tr)
		msg := testMessage(0)
		b.SetBytes(payload)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			msg.Payload = next()
			if err := conn.Send(msg); err != nil {
				b.Fatal(err)
			}
			got, err := accepted.Recv()
			if err != nil {
				b.Fatal(err)
			}
			recycle(got.Payload)
		}
	}
	fixed := testMessage(payload).Payload
	pooled := func(tr Transport) func() []byte {
		return func() []byte {
			buf := GetPayload(tr, payload)
			copy(buf, fixed)
			return buf
		}
	}
	b.Run("binary", func(b *testing.B) {
		run(b, NewTCP(nil),
			func() []byte { return bytes.Clone(fixed) },
			func([]byte) {})
	})
	b.Run("binary+pool", func(b *testing.B) {
		tr := NewTCP(nil)
		run(b, tr, pooled(tr), tr.(PayloadPool).PutPayload)
	})
	// The sized-buffer wire row: buffers cover a whole 64 KiB chunk, so the
	// frame reaches the socket in one write instead of a header-flush plus
	// split payload writes. The delta against the "binary+pool" row above
	// is what SetBufferHint buys on the serving path.
	b.Run("binary+hint", func(b *testing.B) {
		tr := NewTCP(nil)
		SetBufferHint(tr, payload)
		run(b, tr, pooled(tr), tr.(PayloadPool).PutPayload)
	})
	// The large-chunk row: a 1 MiB payload on a conn hinted 1 MiB, pooled as
	// on the serving path. The hint's ceiling keeps the conn's buffers at one
	// spill-threshold chunk, so all but the first buffer's worth goes from
	// the payload to the socket and from the socket into the pooled payload
	// directly; MB/s here is what a byte costs to move. (With buffers sized
	// to the chunk every byte was copied once more on each side.) A chunk
	// this size need not fit the kernel's socket buffers, so the receiver
	// drains on its own goroutine, as a peer process would.
	b.Run("binary+hint/1MiB", func(b *testing.B) {
		const large = 1 << 20
		tr := NewTCP(nil)
		SetBufferHint(tr, large)
		pp := tr.(PayloadPool)
		_, conn, accepted := dialPair(b, tr)
		received := make(chan struct{})
		go func() {
			defer close(received)
			for {
				m, err := accepted.Recv()
				if err != nil {
					return
				}
				pp.PutPayload(m.Payload)
				received <- struct{}{}
			}
		}()
		msg := testMessage(0)
		b.SetBytes(large)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			msg.Payload = pp.GetPayload(large)
			if err := conn.Send(msg); err != nil {
				b.Fatal(err)
			}
			if _, ok := <-received; !ok {
				b.Fatal("receiver stopped")
			}
		}
	})
}

// BenchmarkHotPath measures pipelined one-way messages/sec over a real
// localhost socket — the data-plane hot path a provider's destSender
// drives. The receiver drains concurrently; the sender pumps through a
// Coalescer exactly like the runtime does, so bursts of small chunks share
// one flush. Payloads cycle through the transport pool and conn buffers
// are sized by SetBufferHint(payload), as a serving deployment sizes them.
func BenchmarkHotPath(b *testing.B) {
	for _, payload := range []int{512, 4 << 10, 64 << 10} {
		name := fmt.Sprintf("%dB/coalesced", payload)
		if payload >= 1<<10 {
			name = fmt.Sprintf("%dKiB/coalesced", payload>>10)
		}
		b.Run(name, func(b *testing.B) {
			tr := NewTCP(nil)
			pp := tr.(PayloadPool)
			SetBufferHint(tr, payload)
			ln, err := tr.Listen(0)
			if err != nil {
				b.Fatal(err)
			}
			defer ln.Close()
			acceptedCh := make(chan Conn, 1)
			go func() {
				c, _ := ln.Accept()
				acceptedCh <- c
			}()
			conn, err := tr.Dial(1, ln.Addr())
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()
			accepted := <-acceptedCh
			done := make(chan error, 1)
			go func() {
				for i := 0; i < b.N; i++ {
					m, err := accepted.Recv()
					if err != nil {
						done <- err
						return
					}
					pp.PutPayload(m.Payload)
				}
				done <- nil
			}()
			co := NewCoalescer(conn)
			b.SetBytes(int64(payload))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				msg := testMessage(0)
				msg.Payload = pp.GetPayload(payload)
				if err := co.Send(msg, i+1 < b.N); err != nil {
					b.Fatal(err)
				}
			}
			if err := <-done; err != nil {
				b.Fatal(err)
			}
		})
	}
}
