package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// QuantMode selects the element width of the quantizing codec.
type QuantMode uint8

const (
	// QuantInt8 stores each float32 as a signed 8-bit integer with one
	// per-chunk float32 scale (symmetric linear quantization): 4x smaller,
	// absolute error <= scale/2 = maxAbs/254 per element.
	QuantInt8 QuantMode = 1
	// QuantFP16 stores each float32 as an IEEE 754 binary16: 2x smaller,
	// relative error <= 2^-11 for values in the half-precision range.
	QuantFP16 QuantMode = 2
)

// quantHeaderLen is the sub-header the quant codec prepends to each
// transformed payload: one byte packing the mode (low nibble) and the raw
// tail length (high nibble, 0-3 — payload bytes beyond the last full
// float32, carried verbatim), then the float32 scale (int8 mode; zero for
// fp16, which needs none).
const quantHeaderLen = 1 + 4

// Quant returns a codec that quantizes data-chunk payloads — interpreted as
// little-endian float32 activation rows, which is what every runtime chunk
// carries — before handing them to inner (nil = Binary()) for framing.
// Control messages and empty payloads pass through untouched. Composing
// with Deflate (Quant(QuantInt8, Deflate())) quantizes first and compresses
// the quantized bytes, stacking the 4x quantization shrink with whatever
// entropy deflate still finds. Quantization is lossy: the decoded payload
// has the original length but dequantized values.
func Quant(mode QuantMode, inner Codec) Codec {
	if mode != QuantInt8 && mode != QuantFP16 {
		panic(fmt.Sprintf("transport: unknown quant mode %d", mode))
	}
	if inner == nil {
		inner = Binary()
	}
	return quantCodec{mode: mode, inner: inner}
}

type quantCodec struct {
	mode  QuantMode
	inner Codec
}

func (c quantCodec) Name() string {
	name := "quant8"
	if c.mode == QuantFP16 {
		name = "quant16"
	}
	if c.inner.Name() != "binary" {
		name += "+" + c.inner.Name()
	}
	return name
}

func (c quantCodec) NewEncoder(w io.Writer) Encoder {
	return &quantEncoder{mode: c.mode, inner: c.inner.NewEncoder(w)}
}

func (c quantCodec) NewDecoder(r io.Reader, pool *Pool) Decoder {
	return &quantDecoder{mode: c.mode, inner: c.inner.NewDecoder(r, pool), pool: pool}
}

// wireFrac reports the codec's steady-state payload shrink for the
// simulator's wire model: the quantized element fraction times whatever the
// inner codec claims (deflate conservatively claims 1 — its ratio is
// data-dependent, and promising the planner bytes it might not save is the
// wrong direction to err).
func (c quantCodec) wireFrac() float64 {
	frac := 0.25
	if c.mode == QuantFP16 {
		frac = 0.5
	}
	return frac * WireFrac(c.inner)
}

// wireFracCodec is implemented by codecs that shrink data payloads by a
// predictable fraction the simulator can model.
type wireFracCodec interface{ wireFrac() float64 }

// WireFrac returns the fraction of raw payload bytes the codec puts on the
// wire in steady state (1 for codecs with no guaranteed shrink — binary
// and deflate, whose ratio is data-dependent). The simulator's
// PipelineConfig.WireFrac consumes this so predictions and the shaped
// runtime charge the same bytes.
func WireFrac(c Codec) float64 {
	if w, ok := c.(wireFracCodec); ok {
		return w.wireFrac()
	}
	return 1
}

// CalibratedWireFrac is WireFrac with deflate's measured compression ratio
// folded in: where the static fraction conservatively charges deflate 1,
// this substitutes the ratio the codec's DeflateStats actually observed on
// this process's traffic, composing through quant wrappers the same way
// wireFrac does. measured is false — and the value identical to
// WireFrac(c) — until some deflate payload has been compressed, so callers
// can use the value unconditionally and report whether it was calibrated.
func CalibratedWireFrac(c Codec) (frac float64, measured bool) {
	switch cc := c.(type) {
	case deflateCodec:
		return cc.stats.Ratio()
	case quantCodec:
		inner, ok := CalibratedWireFrac(cc.inner)
		f := 0.25
		if cc.mode == QuantFP16 {
			f = 0.5
		}
		return f * inner, ok
	}
	return WireFrac(c), false
}

type quantEncoder struct {
	mode  QuantMode
	inner Encoder
	buf   []byte // reused transform scratch; grows to the largest chunk seen
}

func (e *quantEncoder) Encode(m *Message) error {
	if m.control() || len(m.Payload) == 0 {
		return e.inner.Encode(m)
	}
	p := m.Payload
	n := len(p) / 4
	tail := len(p) % 4
	elem := 1
	if e.mode == QuantFP16 {
		elem = 2
	}
	need := quantHeaderLen + n*elem + tail
	if cap(e.buf) < need {
		e.buf = make([]byte, need)
	}
	out := e.buf[:need]
	out[0] = byte(e.mode) | byte(tail)<<4

	switch e.mode {
	case QuantInt8:
		// Symmetric linear quantization: one scale per chunk, derived from
		// the largest finite magnitude. NaN quantizes to 0 and ±Inf clamps
		// to the extremes, so a poisoned activation cannot poison the scale.
		var maxAbs float32
		for i := 0; i < n; i++ {
			v := math.Float32frombits(binary.LittleEndian.Uint32(p[i*4:]))
			if a := abs32(v); a > maxAbs && !isInf32(a) {
				maxAbs = a
			}
		}
		scale := maxAbs / 127
		binary.LittleEndian.PutUint32(out[1:5], math.Float32bits(scale))
		q := out[quantHeaderLen : quantHeaderLen+n]
		if scale == 0 {
			for i := range q {
				q[i] = 0
			}
		} else {
			inv := 1 / scale
			for i := 0; i < n; i++ {
				v := math.Float32frombits(binary.LittleEndian.Uint32(p[i*4:]))
				q[i] = byte(quantize8(v, inv))
			}
		}
	case QuantFP16:
		binary.LittleEndian.PutUint32(out[1:5], 0)
		q := out[quantHeaderLen:]
		for i := 0; i < n; i++ {
			bits := binary.LittleEndian.Uint32(p[i*4:])
			binary.LittleEndian.PutUint16(q[i*2:], f32to16(bits))
		}
	}
	copy(out[need-tail:], p[len(p)-tail:])

	// Swap the quantized buffer in for framing and restore the caller's
	// payload afterwards (Encode's contract allows payload rewriting — the
	// transports capture the payload before encoding — but restoring keeps
	// this encoder reusable under any caller, and unlike framing a copy of
	// the message it keeps the encode hot path allocation-free).
	m.Payload = out
	err := e.inner.Encode(m)
	m.Payload = p
	return err
}

// quantize8 maps v to a clamped int8 level. NaN maps to 0.
func quantize8(v, inv float32) int8 {
	if v != v { // NaN
		return 0
	}
	q := v * inv
	switch {
	case q >= 127:
		return 127
	case q <= -127:
		return -127
	case q >= 0:
		return int8(q + 0.5)
	default:
		return int8(q - 0.5)
	}
}

type quantDecoder struct {
	mode  QuantMode
	inner Decoder
	pool  *Pool
}

func (d *quantDecoder) Decode(m *Message) error {
	if err := d.inner.Decode(m); err != nil {
		return err
	}
	if m.control() || len(m.Payload) == 0 {
		return nil
	}
	// Validate before trusting any field: the frame may be garbage (fuzzed,
	// corrupted, or produced by a peer on a different codec). Every reject
	// is an error, never a panic.
	enc := m.Payload
	if len(enc) < quantHeaderLen {
		return fmt.Errorf("transport: quant frame of %d bytes is shorter than the %d-byte sub-header", len(enc), quantHeaderLen)
	}
	mode := QuantMode(enc[0] & 0x0f)
	tail := int(enc[0] >> 4)
	if mode != d.mode {
		return fmt.Errorf("transport: quant frame mode %d does not match codec mode %d", mode, d.mode)
	}
	if tail > 3 {
		return fmt.Errorf("transport: quant frame tail length %d exceeds 3", tail)
	}
	elem := 1
	if mode == QuantFP16 {
		elem = 2
	}
	body := len(enc) - quantHeaderLen - tail
	if body < 0 || body%elem != 0 {
		return fmt.Errorf("transport: quant frame body of %d bytes is not a whole number of %d-byte elements", body, elem)
	}
	n := body / elem
	outLen := n*4 + tail
	if outLen > maxFrame {
		return fmt.Errorf("transport: quant payload of %d bytes exceeds limit", outLen)
	}
	scale := math.Float32frombits(binary.LittleEndian.Uint32(enc[1:5]))
	if mode == QuantInt8 && (isInf32(scale) || scale != scale || scale < 0) {
		return fmt.Errorf("transport: quant frame carries invalid scale %v", scale)
	}

	out := d.pool.Get(outLen)
	q := enc[quantHeaderLen : quantHeaderLen+n*elem]
	switch mode {
	case QuantInt8:
		for i := 0; i < n; i++ {
			v := float32(int8(q[i])) * scale
			binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(v))
		}
	case QuantFP16:
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(out[i*4:], f16to32(binary.LittleEndian.Uint16(q[i*2:])))
		}
	}
	copy(out[n*4:], enc[len(enc)-tail:])
	m.Payload = out
	// The encoded buffer came from the pool the inner decoder shares; it is
	// dead now that the payload is dequantized.
	d.pool.Put(enc)
	return nil
}

func abs32(v float32) float32 {
	return math.Float32frombits(math.Float32bits(v) &^ (1 << 31))
}

func isInf32(v float32) bool {
	return math.Float32bits(v)&0x7fffffff == 0x7f800000
}

// f32to16 converts float32 bits to IEEE binary16 bits with round-to-nearest
// (even in the normal range). Overflow saturates to ±Inf, NaN stays NaN,
// and magnitudes below the half subnormal range flush to ±0.
func f32to16(b uint32) uint16 {
	sign := uint16((b >> 16) & 0x8000)
	abs := b & 0x7fffffff
	switch {
	case abs > 0x7f800000: // NaN
		return sign | 0x7e00
	case abs >= 0x47800000: // >= 2^16: overflow (and ±Inf) saturates to Inf
		return sign | 0x7c00
	case abs >= 0x38800000: // normal half range [2^-14, 2^16)
		// Rebias the exponent and round the 13 dropped mantissa bits to
		// nearest-even; a mantissa carry correctly bumps the exponent (up
		// to Inf at the top of the range).
		abs += 0xfff + ((abs >> 13) & 1)
		return sign | uint16((abs-0x38000000)>>13)
	case abs >= 0x33000001: // subnormal half range
		exp := abs >> 23 // 102..112
		man := (abs & 0x7fffff) | 0x800000
		shift := 126 - exp // value = man * 2^(exp-150); half ulp = 2^-24
		return sign | uint16((man+(1<<(shift-1)))>>shift)
	default: // underflow to ±0
		return sign
	}
}

// f16to32 converts IEEE binary16 bits to float32 bits (exact — every half
// value is representable in single precision).
func f16to32(h uint16) uint32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1f)
	man := uint32(h & 0x3ff)
	switch {
	case exp == 0x1f: // Inf / NaN
		return sign | 0x7f800000 | man<<13
	case exp != 0: // normal
		return sign | (exp+112)<<23 | man<<13
	case man != 0: // subnormal: normalize into a float32 normal
		e := uint32(113)
		for man&0x400 == 0 {
			man <<= 1
			e--
		}
		return sign | e<<23 | (man&0x3ff)<<13
	default: // ±0
		return sign
	}
}
