package transport

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Deflate returns a codec that DEFLATE-compresses data-chunk payloads
// behind the existing binary framing: the compressed bytes travel as an
// ordinary binary chunk frame (the header's length field carries the
// compressed size), so the wire format needs no new frame kind and
// control messages pass through uncompressed. Activation rows
// are float32 and compress well; on low-bandwidth shaped links the CPU
// spent here buys back wire seconds — see DESIGN.md for when the trade
// wins. The flate level is BestSpeed: the codec sits on the serving hot
// path, where ratio beyond "good enough" is worth less than encode time.
//
// Compressor and decompressor state is shared across all connections
// through package-level sync.Pools: a flate.Writer is ~330 KB and a
// decompressor ~50 KB, so per-connection private instances made every
// dialled link pay that once — on an n-provider cluster with n^2 links,
// megabytes of dead weight pinned by idle conns. Checked out per message
// and returned immediately, a handful of instances now serve any number
// of connections. (The remaining per-message decode allocations are the
// stdlib decompressor's per-block Huffman tables, which flate rebuilds
// from scratch on every dynamic block — not codec state, and not
// poolable from outside the stdlib.)
func Deflate() Codec { return deflateCodec{inner: Binary(), stats: &DeflateStats{}} }

// DeflateStats accumulates the measured compression ratio of one Deflate()
// codec value: every connection's encoder built from that value folds its
// per-message raw and compressed payload byte counts into the shared
// counters, so Ratio is the byte-weighted mean ratio across all of the
// codec's conns. The simulator's static WireFrac conservatively charges
// deflate a fraction of 1 (the ratio is data-dependent); once traffic has
// flowed, CalibratedWireFrac substitutes this measurement so shaped
// deflate predictions tighten to the bytes actually sent.
type DeflateStats struct {
	raw        atomic.Uint64
	compressed atomic.Uint64
}

func (s *DeflateStats) add(raw, compressed int) {
	s.raw.Add(uint64(raw))
	s.compressed.Add(uint64(compressed))
}

// Ratio returns compressed/raw payload bytes over everything encoded so
// far. ok is false — and the ratio 1, the static conservative fraction —
// until at least one data payload has been compressed.
func (s *DeflateStats) Ratio() (ratio float64, ok bool) {
	raw := s.raw.Load()
	if raw == 0 {
		return 1, false
	}
	return float64(s.compressed.Load()) / float64(raw), true
}

type deflateCodec struct {
	inner Codec
	stats *DeflateStats
}

func (deflateCodec) Name() string { return "deflate" }

func (c deflateCodec) NewEncoder(w io.Writer) Encoder {
	return &deflateEncoder{inner: c.inner.NewEncoder(w), stats: c.stats}
}

func (c deflateCodec) NewDecoder(r io.Reader, pool *Pool) Decoder {
	return &deflateDecoder{inner: c.inner.NewDecoder(r, pool), pool: pool}
}

// flateWriters / flateReaders share compressor and decompressor state
// across every deflate encoder and decoder in the process. New() stays nil
// so a miss is visible as a nil and constructed with the right level in
// one place.
var flateWriters = sync.Pool{}
var flateReaders = sync.Pool{}

func getFlateWriter(w io.Writer) (*flate.Writer, error) {
	if fw, ok := flateWriters.Get().(*flate.Writer); ok {
		fw.Reset(w)
		return fw, nil
	}
	return flate.NewWriter(w, flate.BestSpeed)
}

func putFlateWriter(fw *flate.Writer) { flateWriters.Put(fw) }

func getFlateReader(r io.Reader) (io.ReadCloser, error) {
	if fr, ok := flateReaders.Get().(io.ReadCloser); ok {
		if err := fr.(flate.Resetter).Reset(r, nil); err != nil {
			return nil, err
		}
		return fr, nil
	}
	return flate.NewReader(r), nil
}

func putFlateReader(fr io.ReadCloser) { flateReaders.Put(fr) }

type deflateEncoder struct {
	inner Encoder
	buf   bytes.Buffer
	stats *DeflateStats
}

func (e *deflateEncoder) Encode(m *Message) error {
	if m.control() || len(m.Payload) == 0 {
		return e.inner.Encode(m)
	}
	e.buf.Reset()
	fw, err := getFlateWriter(&e.buf)
	if err != nil {
		return err
	}
	if _, err := fw.Write(m.Payload); err != nil {
		return err
	}
	if err := fw.Close(); err != nil {
		return err
	}
	putFlateWriter(fw)
	if e.stats != nil {
		e.stats.add(len(m.Payload), e.buf.Len())
	}
	// Frame a copy of the message so the caller's payload field — whose
	// ownership the Send contract may hand to a pool — is never rewritten.
	tmp := *m
	tmp.Payload = e.buf.Bytes()
	return e.inner.Encode(&tmp)
}

type deflateDecoder struct {
	inner Decoder
	br    bytes.Reader
	pool  *Pool
}

func (d *deflateDecoder) Decode(m *Message) error {
	if err := d.inner.Decode(m); err != nil {
		return err
	}
	if m.control() || len(m.Payload) == 0 {
		return nil
	}
	compressed := m.Payload
	d.br.Reset(compressed)
	fr, err := getFlateReader(&d.br)
	if err != nil {
		return err
	}
	// Starting at the compressed size, the doublings end in the size class
	// an exact Get of the inflated size would draw from, so received
	// payloads recycle into the classes senders draw from.
	payload, err := inflate(fr, d.pool, len(compressed), maxFrame)
	if err != nil {
		return err
	}
	putFlateReader(fr)
	m.Payload = payload
	// The compressed buffer came from the pool the inner decoder shares; it
	// is dead now that the payload is inflated.
	d.pool.Put(compressed)
	return nil
}

// inflate reads fr to its end into a buffer drawn from pool, the way the
// binary decoder reads a long frame (readGrowing): the buffer starts at
// hint bytes and doubles only once the inflated bytes have filled it, so
// a payload costs what it inflates to, never what a stream claims or could
// expand to. A stream that inflates past limit bytes — the bound the
// binary decoder puts on a declared length — fails having filled a buffer
// of at most limit bytes.
func inflate(fr io.Reader, pool *Pool, hint, limit int) ([]byte, error) {
	buf := pool.Get(min(max(hint, 1), limit))
	buf = buf[:min(cap(buf), limit)]
	n, err := 0, error(nil)
	for err == nil {
		var k int
		k, err = fr.Read(buf[n:])
		n += k
		switch {
		case err != nil || n < len(buf):
		case n == limit:
			// A full buffer at the limit is the whole payload only if the
			// stream ends here.
			var probe [1]byte
			if _, err = io.ReadFull(fr, probe[:]); err == nil {
				err = fmt.Errorf("inflates past %d bytes", limit)
			}
		default:
			grown := pool.Get(min(2*n, limit))
			grown = grown[:min(cap(grown), limit)]
			copy(grown, buf[:n])
			pool.Put(buf)
			buf = grown
		}
	}
	if err == io.EOF && n > 0 {
		return buf[:n], nil
	}
	pool.Put(buf)
	if err == io.EOF {
		return nil, nil // an empty payload
	}
	return nil, fmt.Errorf("transport: deflate payload: %w", err)
}
