package runtime

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"math"
	"testing"
)

// TestFillActivationDeterministic pins the seed addressing: the bytes are a
// function of (length, seed) alone, and different seeds give different
// streams from the first bytes on.
func TestFillActivationDeterministic(t *testing.T) {
	for _, n := range []int{8, 67, 4096, 600_000} {
		x, y, z := make([]byte, n), make([]byte, n), make([]byte, n)
		fillActivation(x, 42)
		fillActivation(y, 42)
		fillActivation(z, 43)
		if !bytes.Equal(x, y) {
			t.Errorf("len %d: same seed gave different bytes", n)
		}
		if bytes.Equal(x, z) || bytes.Equal(x[:8], z[:8]) {
			t.Errorf("len %d: seeds 42 and 43 gave the same bytes", n)
		}
	}
	// A shorter fill is a prefix of a longer one with the same seed up to
	// the last whole 32-byte block: chunk length does not re-address it.
	long, short := make([]byte, 4096), make([]byte, 1000)
	fillActivation(long, 7)
	fillActivation(short, 7)
	if whole := len(short) / 32 * 32; !bytes.Equal(long[:whole], short[:whole]) {
		t.Error("same-seed fills of different lengths diverge inside whole blocks")
	}
}

// TestFillActivationWritesEveryByte fills every length 0..67 (all residues
// of the 32-byte block, the 8-byte pair and the 4-byte value) over two
// different backgrounds: any byte the generator skipped would keep its
// background and make the two fills differ. A guard byte past the end must
// stay untouched.
func TestFillActivationWritesEveryByte(t *testing.T) {
	for n := 0; n <= 67; n++ {
		x := bytes.Repeat([]byte{0x00}, n+1)
		y := bytes.Repeat([]byte{0xff}, n+1)
		fillActivation(x[:n], uint32(n))
		fillActivation(y[:n], uint32(n))
		if !bytes.Equal(x[:n], y[:n]) {
			t.Errorf("len %d: fill depends on the buffer's previous contents", n)
		}
		if x[n] != 0x00 || y[n] != 0xff {
			t.Errorf("len %d: fill wrote past the end of the slice", n)
		}
	}
}

// TestFillActivationValueLaw checks every aligned float32 of a fill —
// block body and tail alike — is finite and inside [-8, 8], and that the
// values use the range rather than huddling in a corner of it.
func TestFillActivationValueLaw(t *testing.T) {
	for _, seed := range []uint32{0, 1, 0xffffffff, 0x12345678} {
		buf := make([]byte, 64<<10+28) // 28: a tail of three pairs and a half
		fillActivation(buf, seed)
		lo, hi := float32(0), float32(0)
		for i := 0; i+4 <= len(buf); i += 4 {
			v := math.Float32frombits(binary.LittleEndian.Uint32(buf[i:]))
			if v != v || v < -8 || v > 8 {
				t.Fatalf("seed %#x: value %d = %v outside [-8, 8]", seed, i/4, v)
			}
			lo, hi = min(lo, v), max(hi, v)
		}
		if lo > -7.9 || hi < 7.9 {
			t.Errorf("seed %#x: values span only [%v, %v]", seed, lo, hi)
		}
	}
}

// TestFillActivationDeflateRatio pins the property the doc comment promises
// the codecs: deflate at BestSpeed keeps ~0.91 of the bytes (sign, exponent
// and nothing else compress), at the chunk sizes the shaped-deflate fidelity
// rows and CalibratedWireFrac measure (their tolerances were set against
// 0.910).
func TestFillActivationDeflateRatio(t *testing.T) {
	for _, n := range []int{64 << 10, 1 << 20} {
		buf := make([]byte, n)
		fillActivation(buf, 99)
		var out bytes.Buffer
		w, err := flate.NewWriter(&out, flate.BestSpeed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(buf); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		ratio := float64(out.Len()) / float64(n)
		t.Logf("%d-byte fill: flate.BestSpeed ratio %.4f", n, ratio)
		if ratio < 0.90 || ratio > 0.92 {
			t.Errorf("%d-byte fill deflates to %.4f of its size, want [0.90, 0.92]", n, ratio)
		}
	}
}

// TestFillActivationAllocs: the generator runs once per emulated step
// output on the serving path and must not touch the heap.
func TestFillActivationAllocs(t *testing.T) {
	buf := make([]byte, 4099)
	if n := testing.AllocsPerRun(100, func() { fillActivation(buf, 5) }); n != 0 {
		t.Errorf("fillActivation allocates %v times per call, want 0", n)
	}
}

// BenchmarkFillActivation measures the generator at wire-large's typical
// chunk size; MB/s is the figure fillActivation's comment quotes.
func BenchmarkFillActivation(b *testing.B) {
	buf := make([]byte, 600_000)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fillActivation(buf, uint32(i))
	}
}
