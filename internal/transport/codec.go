package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"
)

// Codec turns a byte stream into a Message stream. Encoders and decoders
// are stateful per connection (each keeps its own header buffer, a stacked
// codec its inner coder), so a Codec is a factory: each connection gets its
// own encoder/decoder pair over its own stream. A decoder draws payload
// buffers from pool.
type Codec interface {
	Name() string
	NewEncoder(w io.Writer) Encoder
	NewDecoder(r io.Reader, pool *Pool) Decoder
}

// Encoder writes messages to one stream. Callers serialise access.
type Encoder interface {
	Encode(m *Message) error
}

// Decoder reads messages from one stream. Callers serialise access.
type Decoder interface {
	Decode(m *Message) error
}

// ---------------------------------------------------------------------------
// Binary: the hot-path chunk format. Every message — the float32 row
// payloads that dominate wire traffic and control messages (Volume < -1:
// heartbeats) alike — travels as a fixed 25-byte little-endian header (tag,
// image, volume, lo, hi, lag, payload length) followed by the raw payload,
// so encoding is two buffered writes and decoding is two io.ReadFulls with
// zero reflection and zero allocations. Lag crosses as unsigned nanoseconds,
// saturated at MaxLag by the encoder and clamped again by the decoder; a
// control message carries Lag 0, and the decoder zeroes it on a control
// volume whatever the bytes say.

const (
	tagChunk = 0x01

	chunkHeaderLen = 1 + 4 + 4 + 4 + 4 + 4 + 4 // tag + image + volume + lo + hi + lag + len

	// maxFrame bounds a decoded payload: a longer declared length is
	// refused outright.
	maxFrame = 1 << 30

	// eagerFrame is the largest declared payload the decoder allocates up
	// front, in one buffer the bytes are read straight into. A longer
	// payload's buffer grows as its bytes arrive, so a corrupt or hostile
	// length costs at most eagerFrame before a short stream fails.
	eagerFrame = 4 << 20
)

type binaryCodec struct{}

// Binary returns the length-prefixed binary chunk codec.
func Binary() Codec { return binaryCodec{} }

func (binaryCodec) Name() string { return "binary" }

func (binaryCodec) NewEncoder(w io.Writer) Encoder {
	return &binaryEncoder{w: w}
}

func (binaryCodec) NewDecoder(r io.Reader, pool *Pool) Decoder {
	return &binaryDecoder{r: r, pool: pool}
}

type binaryEncoder struct {
	w   io.Writer
	hdr [chunkHeaderLen]byte
}

func (e *binaryEncoder) Encode(m *Message) error {
	lag := clampLag(m.Lag)
	if m.control() {
		lag = 0 // schedule debt only means something on a data chunk
	}
	e.hdr[0] = tagChunk
	binary.LittleEndian.PutUint32(e.hdr[1:5], m.Image)
	binary.LittleEndian.PutUint32(e.hdr[5:9], uint32(m.Volume))
	binary.LittleEndian.PutUint32(e.hdr[9:13], uint32(m.Lo))
	binary.LittleEndian.PutUint32(e.hdr[13:17], uint32(m.Hi))
	binary.LittleEndian.PutUint32(e.hdr[17:21], uint32(lag))
	binary.LittleEndian.PutUint32(e.hdr[21:25], uint32(len(m.Payload)))
	if _, err := e.w.Write(e.hdr[:]); err != nil {
		return err
	}
	if len(m.Payload) == 0 {
		return nil
	}
	_, err := e.w.Write(m.Payload)
	return err
}

type binaryDecoder struct {
	r    io.Reader
	hdr  [chunkHeaderLen]byte
	pool *Pool
}

func (d *binaryDecoder) Decode(m *Message) error {
	if _, err := io.ReadFull(d.r, d.hdr[:1]); err != nil {
		return err
	}
	if d.hdr[0] != tagChunk {
		return fmt.Errorf("transport: unknown frame tag 0x%02x", d.hdr[0])
	}
	if _, err := io.ReadFull(d.r, d.hdr[1:]); err != nil {
		return err
	}
	m.Image = binary.LittleEndian.Uint32(d.hdr[1:5])
	m.Volume = int32(binary.LittleEndian.Uint32(d.hdr[5:9]))
	m.Lo = int32(binary.LittleEndian.Uint32(d.hdr[9:13]))
	m.Hi = int32(binary.LittleEndian.Uint32(d.hdr[13:17]))
	m.Lag = clampLag(time.Duration(binary.LittleEndian.Uint32(d.hdr[17:21])))
	if m.control() {
		m.Lag = 0 // whatever the bytes say: Lag is input, like its MaxLag bound
	}
	n := binary.LittleEndian.Uint32(d.hdr[21:25])
	if n > maxFrame {
		return fmt.Errorf("transport: chunk payload of %d bytes exceeds limit", n)
	}
	if n == 0 {
		m.Payload = nil
		return nil
	}
	switch {
	case uint32(cap(m.Payload)) >= n:
		m.Payload = m.Payload[:n]
	case n <= eagerFrame:
		m.Payload = d.pool.Get(int(n))
	default:
		return d.readGrowing(m, int(n))
	}
	_, err := io.ReadFull(d.r, m.Payload)
	return err
}

// readGrowing reads an n-byte payload past eagerFrame into a buffer that
// starts at eagerFrame and doubles, up to n, only once the bytes read so
// far have filled it.
func (d *binaryDecoder) readGrowing(m *Message, n int) error {
	buf := d.pool.Get(eagerFrame)
	for got := 0; ; {
		k, err := io.ReadFull(d.r, buf[got:])
		got += k
		if err != nil || got == n {
			m.Payload = buf
			return err
		}
		grown := d.pool.Get(min(2*got, n))
		copy(grown, buf)
		d.pool.Put(buf)
		buf = grown
	}
}
