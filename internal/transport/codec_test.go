package transport

import (
	"bytes"
	"encoding/binary"
	"testing"
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
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= chunkHeaderLen && data[0] == tagChunk {
			// The decoder takes a length up to maxFrame at its word: a stream
			// cannot be read ahead, so the buffer is allocated before the
			// bytes arrive. Past what the input holds that is only the
			// allocator's time; the read then fails like a short frame.
			if n := binary.LittleEndian.Uint32(data[21:25]); n <= maxFrame && int(n) > len(data)-chunkHeaderLen+1<<20 {
				return
			}
		}
		var m Message
		err := Binary().NewDecoder(bytes.NewReader(data), nil).Decode(&m)
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
		if err := Binary().NewDecoder(bytes.NewReader(binaryFrame(t, m)), nil).Decode(&again); err != nil {
			t.Fatalf("re-encoded %+v does not decode: %v", m, err)
		}
		if !sameMessage(again, m) || again.Lag != m.Lag {
			t.Fatalf("re-encoded %+v decoded as %+v", m, again)
		}
	})
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
