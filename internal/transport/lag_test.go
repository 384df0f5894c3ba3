package transport

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

// TestLagRoundtripsThroughEveryCodec: the schedule debt a stage hands on
// must reach the next stage exactly, whatever the codec stack does to the
// payload, and come out clamped to [0, MaxLag] when it went in outside it.
func TestLagRoundtripsThroughEveryCodec(t *testing.T) {
	codecs := []Codec{Binary(), Deflate(), Quant(QuantInt8, nil), Quant(QuantFP16, nil), Quant(QuantInt8, Deflate())}
	cases := []struct{ in, want time.Duration }{
		{0, 0},
		{1, 1},
		{350 * time.Microsecond, 350 * time.Microsecond},
		{MaxLag, MaxLag},
		{MaxLag + 1, MaxLag},
		{time.Hour, MaxLag}, // would wrap a uint32 of nanoseconds
		{-5 * time.Millisecond, 0},
	}
	for _, codec := range codecs {
		t.Run(codec.Name(), func(t *testing.T) {
			var buf bytes.Buffer
			enc := codec.NewEncoder(&buf)
			dec := codec.NewDecoder(&buf, nil)
			for _, tc := range cases {
				for _, payload := range []int{0, 1024} {
					m := Message{Image: 3, Volume: 1, Lo: 2, Hi: 9, Lag: tc.in, Payload: activationPayload(payload/4, 0, 5)}
					if err := enc.Encode(&m); err != nil {
						t.Fatalf("encode lag %s: %v", tc.in, err)
					}
					if m.Lag != tc.in {
						t.Fatalf("encoder rewrote the caller's Lag: %s -> %s", tc.in, m.Lag)
					}
					got := Message{Lag: 77} // a reused message must not keep its old Lag
					if err := dec.Decode(&got); err != nil {
						t.Fatalf("decode lag %s: %v", tc.in, err)
					}
					if got.Lag != tc.want {
						t.Errorf("lag %s with a %d-byte payload decoded as %s, want %s", tc.in, payload, got.Lag, tc.want)
					}
					if got.Image != 3 || got.Volume != 1 || got.Lo != 2 || got.Hi != 9 || len(got.Payload) != len(m.Payload) {
						t.Errorf("lag %s: neighbouring fields damaged: %+v", tc.in, got)
					}
				}
			}
		})
	}
}

// TestBinaryHeaderLayout pins the chunk header: 25 bytes, Lag as unsigned
// little-endian nanoseconds at offset 17, payload length last.
func TestBinaryHeaderLayout(t *testing.T) {
	var buf bytes.Buffer
	m := Message{Image: 0x01020304, Volume: 5, Lo: 6, Hi: 7, Lag: 0x0a0b0c0d, Payload: []byte{0xee, 0xff}}
	if err := Binary().NewEncoder(&buf).Encode(&m); err != nil {
		t.Fatal(err)
	}
	want := []byte{
		tagChunk,
		4, 3, 2, 1, // image
		5, 0, 0, 0, // volume
		6, 0, 0, 0, // lo
		7, 0, 0, 0, // hi
		0x0d, 0x0c, 0x0b, 0x0a, // lag, ns
		2, 0, 0, 0, // payload length
		0xee, 0xff,
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("frame\n got %x\nwant %x", buf.Bytes(), want)
	}
	if chunkHeaderLen != 25 {
		t.Fatalf("chunkHeaderLen = %d, want 25", chunkHeaderLen)
	}
}

// TestBinaryDecoderClampsHostileLag feeds the decoder a frame nobody's
// encoder would write: a Lag field of all ones. It is input from outside
// the process and must come out bounded, not as 4.3 s of cancelled sleeps.
func TestBinaryDecoderClampsHostileLag(t *testing.T) {
	for _, raw := range []uint32{0xffffffff, uint32(MaxLag) + 1, 0x80000000} {
		hdr := make([]byte, chunkHeaderLen)
		hdr[0] = tagChunk
		binary.LittleEndian.PutUint32(hdr[17:21], raw)
		var m Message
		if err := Binary().NewDecoder(bytes.NewReader(hdr), nil).Decode(&m); err != nil {
			t.Fatal(err)
		}
		if m.Lag != MaxLag {
			t.Errorf("lag field %#x decoded as %s, want the %s bound", raw, m.Lag, MaxLag)
		}
	}
}

// TestBinaryLagCostsNoAllocation: the field rides the fixed header, so a
// steady-state encode and a decode into a reused message still allocate
// nothing.
func TestBinaryLagCostsNoAllocation(t *testing.T) {
	var buf bytes.Buffer
	enc := Binary().NewEncoder(&buf)
	dec := Binary().NewDecoder(&buf, nil)
	m := testMessage(4096)
	m.Lag = 640 * time.Microsecond
	out := Message{Payload: make([]byte, 4096)}
	buf.Grow(2 * (chunkHeaderLen + 4096))
	allocs := testing.AllocsPerRun(200, func() {
		if err := enc.Encode(&m); err != nil {
			t.Fatal(err)
		}
		if err := dec.Decode(&out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("binary encode+decode with a Lag allocates %.1f times per message, want 0", allocs)
	}
	if out.Lag != m.Lag {
		t.Errorf("decoded lag %s, want %s", out.Lag, m.Lag)
	}
}

// TestControlFramesCarryNoLag: a heartbeat is framed exactly like a chunk —
// the 25-byte header, no payload — with Lag 0, since schedule debt means
// nothing off a data chunk. Through every codec that frames in binary it
// round-trips with its fields intact and Lag 0 (into a reused message too);
// the decoder zeroes Lag on a control volume whatever the bytes say, as it
// bounds it by MaxLag on a chunk; and a beat's encode and decode allocate
// nothing.
func TestControlFramesCarryNoLag(t *testing.T) {
	want := Message{Image: 9, Volume: VolHeartbeat, Lo: 2, Hi: 4}
	for _, codec := range []Codec{Binary(), Deflate(), Quant(QuantInt8, nil)} {
		var buf bytes.Buffer
		enc, dec := codec.NewEncoder(&buf), codec.NewDecoder(&buf, nil)
		beat := want
		beat.Lag = 300 * time.Microsecond
		if err := enc.Encode(&beat); err != nil {
			t.Fatal(err)
		}
		if buf.Len() != chunkHeaderLen || buf.Bytes()[0] != tagChunk {
			t.Errorf("%s: heartbeat frame is %x, want a bare %d-byte chunk header", codec.Name(), buf.Bytes(), chunkHeaderLen)
		}
		if lag := binary.LittleEndian.Uint32(buf.Bytes()[17:21]); lag != 0 {
			t.Errorf("%s: heartbeat frame carries lag %d", codec.Name(), lag)
		}
		got := Message{Lag: 77}
		if err := dec.Decode(&got); err != nil {
			t.Fatal(err)
		}
		if !sameMessage(got, want) || got.Lag != 0 {
			t.Errorf("%s: heartbeat decoded as %+v, want %+v", codec.Name(), got, want)
		}

		allocs := testing.AllocsPerRun(100, func() {
			if err := enc.Encode(&beat); err != nil {
				t.Fatal(err)
			}
			if err := dec.Decode(&got); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: a heartbeat encode+decode allocates %.1f times, want 0", codec.Name(), allocs)
		}
	}

	// A hostile frame: a control volume with every lag bit set.
	hdr := binaryFrame(t, want)
	binary.LittleEndian.PutUint32(hdr[17:21], 0xffffffff)
	got := Message{Lag: 77}
	if err := Binary().NewDecoder(bytes.NewReader(hdr), nil).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Volume != VolHeartbeat || got.Lag != 0 {
		t.Errorf("control frame with lag bits set decoded as %+v, want Lag 0", got)
	}
}
