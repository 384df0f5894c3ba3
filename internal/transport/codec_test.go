package transport

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"runtime"
	"testing"
	"testing/iotest"
)

// FuzzBinaryDecode feeds arbitrary bytes to the binary frame decoder, the
// first thing every byte from a peer meets. It must never panic, never hand
// back a Lag outside [0, MaxLag], a nonzero Lag on a control volume or a
// payload over maxFrame, and must refuse any tag but the chunk tag — the
// retired 0x02 control tag included. Whatever it accepts must re-encode to
// a frame that decodes to the same message.
func FuzzBinaryDecode(f *testing.F) {
	chunk := binaryFrame(f, Message{Image: 7, Volume: 3, Lo: 10, Hi: 12, Lag: 250_000, Payload: []byte{1, 2, 3, 4, 5}})
	f.Add(chunk)
	f.Add(binaryFrame(f, Message{Image: 2, Volume: VolHeartbeat, Lo: 1}))
	f.Add(chunk[:1])
	f.Add(chunk[:chunkHeaderLen-1])
	f.Add(chunk[:chunkHeaderLen+2])
	f.Add([]byte{0x02, 4, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef}) // a retired control frame
	f.Add(hostileFrame(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		err := Binary().NewDecoder(bytes.NewReader(data), new(Pool)).Decode(&m)
		if len(data) > 0 && data[0] != tagChunk && err == nil {
			t.Fatalf("frame tag 0x%02x accepted", data[0])
		}
		if err != nil {
			return
		}
		if m.Lag < 0 || m.Lag > MaxLag {
			t.Fatalf("lag %s outside [0, %s]", m.Lag, MaxLag)
		}
		if m.control() && m.Lag != 0 {
			t.Fatalf("control volume %d decoded with lag %s", m.Volume, m.Lag)
		}
		if len(m.Payload) > maxFrame {
			t.Fatalf("payload of %d bytes exceeds maxFrame", len(m.Payload))
		}
		var again Message
		if err := Binary().NewDecoder(bytes.NewReader(binaryFrame(t, m)), new(Pool)).Decode(&again); err != nil {
			t.Fatalf("re-encoded %+v does not decode: %v", m, err)
		}
		if !sameMessage(again, m) || again.Lag != m.Lag {
			t.Fatalf("re-encoded %+v decoded as %+v", m, again)
		}
	})
}

// FuzzDeflateDecode feeds arbitrary bytes to the deflate decoder. It must
// not panic, whatever the frame or the compressed stream inside it says,
// must never accept a payload that inflates past maxFrame, and a frame
// whose declared payload is longer than the bytes that follow must fail
// having allocated no more than the binary decoder's eagerFrame bound
// allows (under 8 MiB, as TestBinaryDecodeBoundsUpFrontAllocation holds
// the binary decoder to).
func FuzzDeflateDecode(f *testing.F) {
	var buf bytes.Buffer
	enc := Deflate().NewEncoder(&buf)
	for _, m := range []Message{
		{Image: 7, Volume: 3, Lo: 10, Hi: 12, Payload: bytes.Repeat([]byte{1, 2, 3, 4}, 300)},
		{Image: 2, Volume: VolHeartbeat, Lo: 1},
		{Image: 1, Volume: 1, Hi: 1, Payload: []byte{9}},
	} {
		buf.Reset()
		if err := enc.Encode(&m); err != nil {
			f.Fatal(err)
		}
		frame := append([]byte(nil), buf.Bytes()...)
		f.Add(frame)
		f.Add(frame[:len(frame)-1])
	}
	f.Add(hostileFrame(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var m Message
		err := Deflate().NewDecoder(bytes.NewReader(data), new(Pool)).Decode(&m)
		runtime.ReadMemStats(&after)
		if err == nil && len(m.Payload) > maxFrame {
			t.Fatalf("accepted a payload of %d bytes, past maxFrame", len(m.Payload))
		}
		if len(data) < chunkHeaderLen || data[0] != tagChunk {
			return
		}
		if declared := binary.LittleEndian.Uint32(data[21:25]); int64(declared) > int64(len(data)-chunkHeaderLen) {
			if err == nil {
				t.Fatalf("a frame declaring %d payload bytes decoded from %d", declared, len(data)-chunkHeaderLen)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 8<<20 {
				t.Fatalf("a short frame declaring %d payload bytes allocated %d bytes", declared, got)
			}
		}
	})
}

// TestInflateStopsAtLimit: a deflate bomb — 16 MiB of zeros in a few KiB
// — fails under a 64 KiB limit having allocated a small multiple of the
// limit, not its inflated size, while payloads up to the limit inflate
// intact from a hint far below their size, and one byte more fails.
func TestInflateStopsAtLimit(t *testing.T) {
	const limit = 64 << 10
	bomb := deflated(t, make([]byte, 16<<20))
	fr := flate.NewReader(bytes.NewReader(bomb))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := inflate(fr, new(Pool), len(bomb), limit)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("a %d-byte stream of 16 MiB inflated under a %d-byte limit", len(bomb), limit)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("refusing the bomb allocated %d bytes", got)
	}

	for _, n := range []int{1, 1000, limit - 1, limit, limit + 1} {
		p := make([]byte, n)
		for j := range p {
			p[j] = largeFramePattern(n, j)
		}
		got, err := inflate(flate.NewReader(bytes.NewReader(deflated(t, p))), new(Pool), 16, limit)
		switch {
		case n > limit && err == nil:
			t.Errorf("%d-byte payload inflated under a %d-byte limit", n, limit)
		case n <= limit && err != nil:
			t.Errorf("%d-byte payload: %v", n, err)
		case n <= limit && !bytes.Equal(got, p):
			t.Errorf("%d-byte payload inflated to %d bytes, or its bytes differ", n, len(got))
		}
	}
}

// deflated returns p compressed as the deflate codec compresses a payload.
func deflated(tb testing.TB, p []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := fw.Write(p); err != nil {
		tb.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// hostileFrame is a 64-byte stream whose header declares a 1 GiB payload.
func hostileFrame(tb testing.TB) []byte {
	frame := binaryFrame(tb, Message{Image: 1, Volume: 2, Hi: 1, Payload: make([]byte, 64-chunkHeaderLen)})
	binary.LittleEndian.PutUint32(frame[21:25], 1<<30)
	return frame
}

// TestBinaryDecodeBoundsUpFrontAllocation: a declared length is not an
// allocation. A 64-byte stream declaring a 1 GiB payload fails as a short
// frame having allocated less than 8 MiB, while payloads on both sides of
// eagerFrame, handed over a few bytes at a time, decode intact.
func TestBinaryDecodeBoundsUpFrontAllocation(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var m Message
	err := Binary().NewDecoder(bytes.NewReader(hostileFrame(t)), new(Pool)).Decode(&m)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a 64-byte stream decoded as a 1 GiB frame")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 8<<20 {
		t.Errorf("decoding a 64-byte stream allocated %d bytes", got)
	}

	pool := new(Pool)
	for _, n := range []int{eagerFrame - 1, eagerFrame, eagerFrame + 1, 2*eagerFrame + 3} {
		p := make([]byte, n)
		for j := range p {
			p[j] = largeFramePattern(n, j)
		}
		want := Message{Image: 3, Volume: 4, Lo: 5, Hi: 6, Payload: p}
		var got Message
		dec := Binary().NewDecoder(iotest.HalfReader(bytes.NewReader(binaryFrame(t, want))), pool)
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("%d-byte payload: %v", n, err)
		}
		if !sameMessage(got, want) {
			t.Fatalf("%d-byte payload decoded as image=%d volume=%d lo=%d hi=%d len=%d, or its bytes differ",
				n, got.Image, got.Volume, got.Lo, got.Hi, len(got.Payload))
		}
		pool.Put(got.Payload)
	}
}

// binaryFrame returns m's frame under the binary codec.
func binaryFrame(tb testing.TB, m Message) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := Binary().NewEncoder(&buf).Encode(&m); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}
