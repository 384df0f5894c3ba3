package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"time"
)

// Codec turns a byte stream into a Message stream. Encoders and decoders
// are stateful per connection (gob in particular interleaves type
// descriptors into the stream), so a Codec is a factory: each connection
// gets its own encoder/decoder pair over its own stream.
type Codec interface {
	Name() string
	NewEncoder(w io.Writer) Encoder
	NewDecoder(r io.Reader) Decoder
}

// Encoder writes messages to one stream. Callers serialise access.
type Encoder interface {
	Encode(m *Message) error
}

// Decoder reads messages from one stream. Callers serialise access.
type Decoder interface {
	Decode(m *Message) error
}

// pooledCodec is implemented by codecs whose decoders can draw payload
// buffers from a transport's payload pool instead of allocating per
// message. Gob stays outside: its decoder allocates internally.
type pooledCodec interface {
	NewPooledDecoder(r io.Reader, pool *Pool) Decoder
}

// ---------------------------------------------------------------------------
// Gob: the legacy wire format — one gob stream per connection, every
// message (data and control alike) gob-encoded. Retained as the
// compatibility codec and as the benchmark baseline.

type gobCodec struct{}

// Gob returns the gob stream codec (the pre-transport wire format).
func Gob() Codec { return gobCodec{} }

func (gobCodec) Name() string                   { return "gob" }
func (gobCodec) NewEncoder(w io.Writer) Encoder { return gobEncoder{enc: gob.NewEncoder(w)} }
func (gobCodec) NewDecoder(r io.Reader) Decoder { return gobDecoder{dec: gob.NewDecoder(r)} }

type gobEncoder struct{ enc *gob.Encoder }

func (e gobEncoder) Encode(m *Message) error { return e.enc.Encode(m) }

type gobDecoder struct{ dec *gob.Decoder }

func (d gobDecoder) Decode(m *Message) error {
	err := d.dec.Decode(m)
	m.Lag = clampLag(m.Lag)
	return err
}

// ---------------------------------------------------------------------------
// Binary: the hot-path chunk format. Data chunks — the float32 row payloads
// that dominate wire traffic — travel as a fixed 25-byte little-endian
// header (image, volume, lo, hi, lag, payload length) followed by the raw
// payload, so encoding is two buffered writes and decoding is two
// io.ReadFulls with zero reflection. Lag crosses as unsigned nanoseconds,
// saturated at MaxLag by the encoder and clamped again by the decoder.
// Control messages (Volume < -1: heartbeats and future verbs) stay on gob
// inside a length-prefixed frame, keeping them free to grow fields the fixed
// header cannot carry. A one-byte tag distinguishes the two frame kinds.

const (
	tagChunk   = 0x01
	tagControl = 0x02

	chunkHeaderLen = 1 + 4 + 4 + 4 + 4 + 4 + 4 // tag + image + volume + lo + hi + lag + len

	// maxFrame bounds a decoded payload or control frame so a corrupt
	// stream cannot request an absurd allocation.
	maxFrame = 1 << 30
)

type binaryCodec struct{}

// Binary returns the length-prefixed binary chunk codec with gob fallback
// for control messages.
func Binary() Codec { return binaryCodec{} }

func (binaryCodec) Name() string { return "binary" }

func (binaryCodec) NewEncoder(w io.Writer) Encoder {
	return &binaryEncoder{w: w}
}

func (binaryCodec) NewDecoder(r io.Reader) Decoder {
	return &binaryDecoder{r: r}
}

func (binaryCodec) NewPooledDecoder(r io.Reader, pool *Pool) Decoder {
	return &binaryDecoder{r: r, pool: pool}
}

// controlFrame is what a control message gobs as: a Message without Lag.
// Schedule debt only means something on a data chunk, and every control
// frame carries its own gob type descriptor, so a field there is paid for
// again on each heartbeat. Gob matches fields by name; the decoder reads
// the frame straight into a Message.
type controlFrame struct {
	Image   uint32
	Volume  int32
	Lo, Hi  int32
	Payload []byte
}

type binaryEncoder struct {
	w    io.Writer
	hdr  [chunkHeaderLen]byte
	ctrl bytes.Buffer
	cf   controlFrame // what ctrl is gobbed from; here so it does not escape per frame
}

func (e *binaryEncoder) Encode(m *Message) error {
	if m.control() {
		// Control path: gob the message into a tagged, length-prefixed
		// frame. A fresh gob encoder per frame keeps the frame
		// self-describing (no cross-frame stream state); control traffic
		// is a few beats per second, so the cost is irrelevant.
		e.ctrl.Reset()
		e.cf = controlFrame{Image: m.Image, Volume: m.Volume, Lo: m.Lo, Hi: m.Hi, Payload: m.Payload}
		err := gob.NewEncoder(&e.ctrl).Encode(&e.cf)
		e.cf.Payload = nil // the caller's buffer is not the encoder's to keep
		if err != nil {
			return err
		}
		e.hdr[0] = tagControl
		binary.LittleEndian.PutUint32(e.hdr[1:5], uint32(e.ctrl.Len()))
		if _, err := e.w.Write(e.hdr[:5]); err != nil {
			return err
		}
		_, err = e.w.Write(e.ctrl.Bytes())
		return err
	}
	e.hdr[0] = tagChunk
	binary.LittleEndian.PutUint32(e.hdr[1:5], m.Image)
	binary.LittleEndian.PutUint32(e.hdr[5:9], uint32(m.Volume))
	binary.LittleEndian.PutUint32(e.hdr[9:13], uint32(m.Lo))
	binary.LittleEndian.PutUint32(e.hdr[13:17], uint32(m.Hi))
	binary.LittleEndian.PutUint32(e.hdr[17:21], uint32(clampLag(m.Lag)))
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
	pool *Pool // nil = allocate payload buffers per message
}

func (d *binaryDecoder) Decode(m *Message) error {
	if _, err := io.ReadFull(d.r, d.hdr[:1]); err != nil {
		return err
	}
	switch d.hdr[0] {
	case tagControl:
		if _, err := io.ReadFull(d.r, d.hdr[1:5]); err != nil {
			return err
		}
		n := binary.LittleEndian.Uint32(d.hdr[1:5])
		if n > maxFrame {
			return fmt.Errorf("transport: control frame of %d bytes exceeds limit", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(d.r, buf); err != nil {
			return err
		}
		m.Lag = 0 // not in the frame; m may be a reused message
		return gob.NewDecoder(bytes.NewReader(buf)).Decode(m)
	case tagChunk:
		if _, err := io.ReadFull(d.r, d.hdr[1:]); err != nil {
			return err
		}
		m.Image = binary.LittleEndian.Uint32(d.hdr[1:5])
		m.Volume = int32(binary.LittleEndian.Uint32(d.hdr[5:9]))
		m.Lo = int32(binary.LittleEndian.Uint32(d.hdr[9:13]))
		m.Hi = int32(binary.LittleEndian.Uint32(d.hdr[13:17]))
		m.Lag = clampLag(time.Duration(binary.LittleEndian.Uint32(d.hdr[17:21])))
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
		case d.pool != nil:
			m.Payload = d.pool.Get(int(n))
		default:
			m.Payload = make([]byte, n)
		}
		_, err := io.ReadFull(d.r, m.Payload)
		return err
	default:
		return fmt.Errorf("transport: unknown frame tag 0x%02x", d.hdr[0])
	}
}
