package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// activationPayload builds a little-endian float32 payload of n values in
// roughly [-8, 8) plus an optional raw tail — the shape of every runtime
// chunk the quant codec will see.
func activationPayload(n, tail int, seed uint32) []byte {
	buf := make([]byte, n*4+tail)
	x := seed | 1
	next := func() uint32 {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		return x
	}
	for i := 0; i < n; i++ {
		v := float32(int32(next())) / float32(1<<28)
		binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(v))
	}
	for i := n * 4; i < len(buf); i++ {
		buf[i] = byte(next())
	}
	return buf
}

func floats(payload []byte) []float32 {
	out := make([]float32, len(payload)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[i*4:]))
	}
	return out
}

func quantRoundtrip(t *testing.T, codec Codec, payload []byte) Message {
	t.Helper()
	var buf bytes.Buffer
	enc := codec.NewEncoder(&buf)
	dec := codec.NewDecoder(&buf, nil)
	m := Message{Image: 7, Volume: 3, Lo: 10, Hi: 42, Payload: payload}
	if err := enc.Encode(&m); err != nil {
		t.Fatal(err)
	}
	var out Message
	if err := dec.Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Image != m.Image || out.Volume != m.Volume || out.Lo != m.Lo || out.Hi != m.Hi {
		t.Fatalf("header corrupted: got %+v", out)
	}
	if len(out.Payload) != len(payload) {
		t.Fatalf("decoded payload %d bytes, want %d", len(out.Payload), len(payload))
	}
	return out
}

// TestQuantInt8Accuracy pins the int8 error bound on a representative
// activation tensor: symmetric linear quantization with scale maxAbs/127
// has per-element absolute error at most scale/2 (round-to-nearest).
func TestQuantInt8Accuracy(t *testing.T) {
	payload := activationPayload(4096, 3, 0xabcd)
	out := quantRoundtrip(t, Quant(QuantInt8, nil), payload)
	in := floats(payload)
	got := floats(out.Payload)
	var maxAbs float64
	for _, v := range in {
		if a := math.Abs(float64(v)); a > maxAbs {
			maxAbs = a
		}
	}
	bound := maxAbs / 127 / 2 * (1 + 1e-6) // half a quantization step
	for i := range in {
		if err := math.Abs(float64(got[i] - in[i])); err > bound {
			t.Fatalf("element %d: |%g - %g| = %g exceeds int8 bound %g", i, got[i], in[i], err, bound)
		}
	}
	// The raw tail must survive verbatim (it is not float data).
	if !bytes.Equal(out.Payload[len(payload)-3:], payload[len(payload)-3:]) {
		t.Error("raw tail bytes corrupted")
	}
}

// TestQuantFP16Accuracy pins the fp16 error bound: round-to-nearest into a
// 10-bit mantissa keeps relative error under 2^-11 for values in the
// normal half range.
func TestQuantFP16Accuracy(t *testing.T) {
	payload := activationPayload(4096, 0, 0x1234)
	out := quantRoundtrip(t, Quant(QuantFP16, nil), payload)
	in := floats(payload)
	got := floats(out.Payload)
	const relBound = 1.0 / (1 << 11) * (1 + 1e-6)
	for i := range in {
		rel := math.Abs(float64(got[i]-in[i])) / math.Abs(float64(in[i]))
		if math.Abs(float64(in[i])) < 1e-3 { // near-zero: absolute bound instead
			if math.Abs(float64(got[i]-in[i])) > 1e-6 {
				t.Fatalf("element %d: near-zero |%g - %g| too large", i, got[i], in[i])
			}
			continue
		}
		if rel > relBound {
			t.Fatalf("element %d: relative error %g of %g exceeds fp16 bound %g", i, rel, in[i], relBound)
		}
	}
}

// TestQuantSpecialValues checks poisoned activations cannot poison the
// chunk: NaN quantizes to 0 (int8) or stays NaN (fp16), infinities clamp
// (int8) or stay infinite (fp16), and neither corrupts the scale.
func TestQuantSpecialValues(t *testing.T) {
	vals := []float32{1, -2, float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0.5, 1e9, -1e9}
	payload := make([]byte, len(vals)*4)
	for i, v := range vals {
		binary.LittleEndian.PutUint32(payload[i*4:], math.Float32bits(v))
	}
	got8 := floats(quantRoundtrip(t, Quant(QuantInt8, nil), payload).Payload)
	// Finite max magnitude is 1e9, so scale = 1e9/127.
	if got8[2] != 0 {
		t.Errorf("int8: NaN decoded to %g, want 0", got8[2])
	}
	if math.IsInf(float64(got8[3]), 0) || math.IsInf(float64(got8[4]), 0) {
		t.Errorf("int8: infinities must clamp to finite extremes, got %g / %g", got8[3], got8[4])
	}
	if got8[3] <= 0 || got8[4] >= 0 {
		t.Errorf("int8: clamped infinities lost their sign: %g / %g", got8[3], got8[4])
	}
	got16 := floats(quantRoundtrip(t, Quant(QuantFP16, nil), payload).Payload)
	if !math.IsNaN(float64(got16[2])) {
		t.Errorf("fp16: NaN decoded to %g, want NaN", got16[2])
	}
	if !math.IsInf(float64(got16[3]), 1) || !math.IsInf(float64(got16[4]), -1) {
		t.Errorf("fp16: infinities must survive, got %g / %g", got16[3], got16[4])
	}
	if !math.IsInf(float64(got16[6]), 1) { // 1e9 overflows half range -> +Inf
		t.Errorf("fp16: overflow decoded to %g, want +Inf", got16[6])
	}
}

// TestQuantFrameShrink checks the codec actually delivers its advertised
// wire fraction: the encoded frame for a large chunk must be ~1/4 (int8)
// or ~1/2 (fp16) of the raw payload, modulo the fixed headers.
func TestQuantFrameShrink(t *testing.T) {
	const n = 16384
	payload := activationPayload(n, 0, 99)
	for _, tc := range []struct {
		mode QuantMode
		frac float64
	}{{QuantInt8, 0.25}, {QuantFP16, 0.5}} {
		var buf bytes.Buffer
		enc := Quant(tc.mode, nil).NewEncoder(&buf)
		m := Message{Volume: 1, Payload: payload}
		if err := enc.Encode(&m); err != nil {
			t.Fatal(err)
		}
		want := chunkHeaderLen + quantHeaderLen + int(float64(len(payload))*tc.frac)
		if buf.Len() != want {
			t.Errorf("mode %d: frame %d bytes, want %d", tc.mode, buf.Len(), want)
		}
	}
}

// TestQuantControlAndEmptyPassThrough checks heartbeats (control messages)
// and empty payloads cross a quant stream untouched.
func TestQuantControlAndEmptyPassThrough(t *testing.T) {
	for _, mode := range []QuantMode{QuantInt8, QuantFP16} {
		var buf bytes.Buffer
		codec := Quant(mode, nil)
		enc := codec.NewEncoder(&buf)
		dec := codec.NewDecoder(&buf, nil)
		// A verb below today's sentinel space: quant must pass any future
		// control frame through unquantized, not just heartbeats.
		const volFutureVerb = VolHeartbeat - 1
		msgs := []Message{
			{Image: 3, Volume: VolHeartbeat, Lo: 5},
			{Image: 9, Volume: 2, Lo: 1, Hi: 4},
			{Image: 1, Volume: volFutureVerb, Lo: 0, Hi: 0, Payload: []byte("verb")}, // control w/ payload
		}
		for _, m := range msgs {
			if err := enc.Encode(&m); err != nil {
				t.Fatal(err)
			}
		}
		for _, want := range msgs {
			var got Message
			if err := dec.Decode(&got); err != nil {
				t.Fatal(err)
			}
			if !sameMessage(got, want) {
				t.Errorf("mode %d: %+v round-tripped to %+v", mode, want, got)
			}
		}
	}
}

// TestQuantComposesWithDeflate checks the composed stack quantizes first
// and inflates back to the original length within the int8 bound, and that
// the composition is visible in the codec name.
func TestQuantComposesWithDeflate(t *testing.T) {
	codec := Quant(QuantInt8, Deflate())
	if codec.Name() != "quant8+deflate" {
		t.Fatalf("composed name %q, want quant8+deflate", codec.Name())
	}
	payload := activationPayload(2048, 1, 7)
	out := quantRoundtrip(t, codec, payload)
	in, got := floats(payload), floats(out.Payload)
	var maxAbs float64
	for _, v := range in {
		if a := math.Abs(float64(v)); a > maxAbs {
			maxAbs = a
		}
	}
	bound := maxAbs / 127 / 2 * (1 + 1e-6)
	for i := range in {
		if err := math.Abs(float64(got[i] - in[i])); err > bound {
			t.Fatalf("element %d: error %g exceeds bound %g", i, err, bound)
		}
	}
}

// TestQuantEncodeZeroAlloc pins the acceptance criterion: the encode hot
// path allocates nothing in steady state (after the scratch buffer has
// grown to the chunk size).
func TestQuantEncodeZeroAlloc(t *testing.T) {
	for _, mode := range []QuantMode{QuantInt8, QuantFP16} {
		enc := Quant(mode, nil).NewEncoder(&countWriter{})
		m := Message{Volume: 1, Payload: activationPayload(4096, 2, 5)}
		if err := enc.Encode(&m); err != nil { // warm the scratch buffer
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := enc.Encode(&m); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("mode %d: %v allocs/op on the encode hot path, want 0", mode, allocs)
		}
	}
}

// TestQuantDecodeRejectsGarbage drives the decoder with hand-corrupted
// frames; every one must fail with an error, never a panic, and never an
// absurd allocation.
func TestQuantDecodeRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"short frame":     {byte(QuantInt8)},
		"bad mode":        {0x0f, 0, 0, 0, 0, 1, 2, 3},
		"mode mismatch":   {byte(QuantFP16), 0, 0, 0, 0, 1, 2},
		"tail too long":   append([]byte{byte(QuantInt8) | 0x40}, make([]byte, 8)...),
		"tail gt body":    {byte(QuantInt8) | 0x30, 0, 0, 0, 0, 1},
		"nan scale":       append([]byte{byte(QuantInt8), 0, 0, 0xc0, 0x7f}, 1, 2, 3),
		"inf scale":       append([]byte{byte(QuantInt8), 0, 0, 0x80, 0x7f}, 1, 2, 3),
		"negative scale":  append([]byte{byte(QuantInt8), 0, 0, 0x80, 0xbf}, 1, 2, 3),
		"odd fp16 body":   {byte(QuantFP16), 0, 0, 0, 0, 1, 2, 3},
		"empty sub-frame": {},
	}
	for name, frame := range cases {
		mode := QuantInt8
		if name == "odd fp16 body" {
			mode = QuantFP16
		}
		// Ship the garbage as the payload of a legitimate binary chunk
		// frame, which is exactly what a corrupt or mismatched peer
		// produces.
		var buf bytes.Buffer
		if err := Binary().NewEncoder(&buf).Encode(&Message{Volume: 1, Payload: frame}); err != nil {
			t.Fatal(err)
		}
		var out Message
		err := Quant(mode, nil).NewDecoder(&buf, nil).Decode(&out)
		if len(frame) == 0 {
			// An empty payload legitimately passes through.
			if err != nil {
				t.Errorf("%s: empty payload must pass, got %v", name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: corrupt frame %x decoded without error", name, frame)
		}
	}
}

// FuzzQuantDecode feeds arbitrary bytes to both quant decoders as the
// payload of a well-formed binary chunk frame. The decoder must either
// error or return a sane payload — never panic, never allocate beyond the
// frame bound.
func FuzzQuantDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{byte(QuantInt8), 0, 0, 0, 0})
	f.Add([]byte{byte(QuantFP16), 0, 0, 0, 0, 1, 2})
	f.Add(append([]byte{byte(QuantInt8) | 0x20, 0, 0, 0x80, 0x3f}, 1, 2, 3, 4, 5))
	f.Fuzz(func(t *testing.T, frame []byte) {
		for _, mode := range []QuantMode{QuantInt8, QuantFP16} {
			var buf bytes.Buffer
			if err := Binary().NewEncoder(&buf).Encode(&Message{Volume: 1, Payload: frame}); err != nil {
				t.Fatal(err)
			}
			var out Message
			if err := Quant(mode, nil).NewDecoder(&buf, nil).Decode(&out); err != nil {
				continue
			}
			if len(out.Payload) > 4*len(frame) {
				t.Fatalf("mode %d: decoded %d bytes from a %d-byte frame", mode, len(out.Payload), len(frame))
			}
		}
	})
}

// TestWireFrac pins the fractions the simulator's wire model consumes.
func TestWireFrac(t *testing.T) {
	cases := []struct {
		codec Codec
		want  float64
	}{
		{Binary(), 1},
		{Deflate(), 1}, // data-dependent ratio: conservatively unmodelled
		{Quant(QuantInt8, nil), 0.25},
		{Quant(QuantFP16, nil), 0.5},
		{Quant(QuantInt8, Deflate()), 0.25},
		{Quant(QuantFP16, Deflate()), 0.5},
	}
	for _, tc := range cases {
		if got := WireFrac(tc.codec); got != tc.want {
			t.Errorf("WireFrac(%s) = %v, want %v", tc.codec.Name(), got, tc.want)
		}
	}
}

// TestHalfConversion checks the f32↔f16 primitives on exactly
// representable values (loss-free round trip) and the special cases.
func TestHalfConversion(t *testing.T) {
	exact := []float32{0, 1, -1, 0.5, 2048, -2048, 65504 /* max half */, 6.103515625e-05 /* min normal half */}
	for _, v := range exact {
		got := math.Float32frombits(f16to32(f32to16(math.Float32bits(v))))
		if got != v {
			t.Errorf("half roundtrip of %g gave %g", v, got)
		}
	}
	if math.Float32frombits(f16to32(f32to16(math.Float32bits(float32(math.Inf(1)))))) != float32(math.Inf(1)) {
		t.Error("+Inf must survive")
	}
	if !math.IsNaN(float64(math.Float32frombits(f16to32(f32to16(math.Float32bits(float32(math.NaN()))))))) {
		t.Error("NaN must survive")
	}
	if got := math.Float32frombits(f16to32(f32to16(math.Float32bits(1e9)))); !math.IsInf(float64(got), 1) {
		t.Errorf("overflow gave %g, want +Inf", got)
	}
	if got := math.Float32frombits(f16to32(f32to16(math.Float32bits(1e-10)))); got != 0 {
		t.Errorf("underflow gave %g, want 0", got)
	}
	// Negative zero keeps its sign bit.
	if f32to16(math.Float32bits(float32(math.Copysign(0, -1)))) != 0x8000 {
		t.Error("-0 must map to half -0")
	}
}
