package runtime

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"distredge/internal/device"
	"distredge/internal/simd"
	"distredge/internal/transport"
)

// TestFillActivationDeterministic pins the seed addressing: the bytes are a
// function of (length, seed) alone, and different seeds give different
// streams from the first bytes on.
func TestFillActivationDeterministic(t *testing.T) {
	onBothPaths(t, testFillActivationDeterministic)
}

func testFillActivationDeterministic(t *testing.T) {
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
	onBothPaths(t, testFillActivationWritesEveryByte)
}

func testFillActivationWritesEveryByte(t *testing.T) {
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
	onBothPaths(t, testFillActivationValueLaw)
}

func testFillActivationValueLaw(t *testing.T) {
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
	onBothPaths(t, testFillActivationDeflateRatio)
}

func testFillActivationDeflateRatio(t *testing.T) {
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
	onBothPaths(t, testFillActivationAllocs)
}

func testFillActivationAllocs(t *testing.T) {
	buf := make([]byte, 4099)
	if n := testing.AllocsPerRun(100, func() { fillActivation(buf, 5) }); n != 0 {
		t.Errorf("fillActivation allocates %v times per call, want 0", n)
	}
}

// TestFillActivationKernelBitIdentical pins the AVX2 kernel to the
// portable loop byte for byte: every length 0–100 (every residue of the
// 32-byte block, the 8-byte pair and the 4-byte value, with and without
// whole blocks before the tail), 4096 plus every residue and a wire-large
// sized chunk, over the edge seeds and 64 seeded random ones. Each buffer
// sits between 32 guard bytes on both sides, which must come back
// untouched.
func TestFillActivationKernelBitIdentical(t *testing.T) {
	if simd.AVX2 && !useAVX2 {
		t.Fatal("CPUID and XGETBV report AVX2, but the AVX2 fill kernel is not selected")
	}
	if !simd.AVX2 {
		t.Skip("no AVX2 on this CPU: only the portable loop runs")
	}
	saved := useAVX2
	t.Cleanup(func() { useAVX2 = saved })
	var lengths []int
	for n := 0; n <= 100; n++ {
		lengths = append(lengths, n)
	}
	for r := 0; r < 32; r++ {
		lengths = append(lengths, 4096+r)
	}
	lengths = append(lengths, 600_000)
	seeds := []uint32{0, 1, 0x7fffffff, 0xffffffff}
	rng := rand.New(rand.NewSource(1))
	for range 64 {
		seeds = append(seeds, rng.Uint32())
	}
	const guard = 32
	background := func(i int) byte { return byte(0xa5 ^ i) }
	fill := func(buf []byte, seed uint32, avx2 bool) {
		for i := range buf {
			buf[i] = background(i)
		}
		useAVX2 = avx2
		fillActivation(buf[guard:len(buf)-guard], seed)
	}
	want, got := make([]byte, 600_000+2*guard), make([]byte, 600_000+2*guard)
	for _, n := range lengths {
		for _, seed := range seeds {
			w, g := want[:n+2*guard], got[:n+2*guard]
			fill(w, seed, false)
			fill(g, seed, true)
			for i := range g {
				if g[i] != w[i] {
					t.Fatalf("len %d seed %#x: byte %d is %#02x on the AVX2 path, %#02x on the portable one", n, seed, i-guard, g[i], w[i])
				}
				if (i < guard || i >= guard+n) && g[i] != background(i) {
					t.Fatalf("len %d seed %#x: guard byte %d overwritten", n, seed, i-guard)
				}
			}
		}
	}
}

// countingPool counts the payload buffers the runtime draws from its
// transport's pool and hands back.
type countingPool struct {
	transport.Transport
	gets, puts atomic.Int64
}

func (c *countingPool) GetPayload(n int) []byte {
	c.gets.Add(1)
	return transport.GetPayload(c.Transport, n)
}

func (c *countingPool) PutPayload(b []byte) {
	c.puts.Add(1)
	transport.RecyclePayload(c.Transport, b)
}

// TestSelfRoutesCarryNoPayload serves one image on a plan whose providers
// keep rows for themselves (halo rows and the FC owner's last part) and
// counts the payload buffers drawn: one per chunk that crosses the wire,
// scatter included, and none for a self-route, which assembly records by
// its coordinates alone. Over the pooled in-process wire every buffer
// drawn comes back, so the ledger settles at 0.
func TestSelfRoutesCarryNoPayload(t *testing.T) {
	env := testEnv(device.Xavier, device.Nano, device.TX2, device.Nano)
	s := equalStrategy(env, []int{0, 10, 14, 18})
	pool := &countingPool{Transport: transport.NewInproc()}
	opts := fastOpts()
	opts.Transport = pool
	plan, err := BuildPlan(env, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	self := checkPlanWiring(t, plan)
	if self == 0 {
		t.Fatal("the plan keeps no rows on a provider: nothing to test")
	}
	wire := len(plan.Scatter)
	for _, pp := range plan.Providers {
		for _, st := range pp.Steps {
			for _, r := range st.Routes {
				if r.Dest != pp.Index {
					wire++
				}
			}
		}
	}
	cl, err := Deploy(env, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := stream(cl, 1, 1); err != nil {
		t.Fatal(err)
	}
	if got := pool.gets.Load(); got != int64(wire) {
		t.Errorf("one image drew %d payloads, want %d (the chunks that cross the wire; %d self-routes draw none)", got, wire, self)
	}
	// A receive thread recycles a payload just after assembly records it,
	// which may trail the result by a moment.
	for deadline := time.Now().Add(5 * time.Second); pool.gets.Load() != pool.puts.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("payload ledger %d after the image, want 0", pool.gets.Load()-pool.puts.Load())
		}
	}
}

// onBothPaths runs a test once on the portable loop and once on the AVX2
// kernel, where the CPU and OS support it.
func onBothPaths(t *testing.T, test func(*testing.T)) {
	saved := useAVX2
	t.Cleanup(func() { useAVX2 = saved })
	for _, avx2 := range []bool{false, true} {
		if avx2 && !simd.AVX2 {
			t.Log("no AVX2 on this CPU: the fill kernel is not tested, only the portable loop")
			continue
		}
		useAVX2 = avx2
		t.Run(pathName(avx2), test)
	}
}

func pathName(avx2 bool) string {
	if avx2 {
		return "avx2"
	}
	return "portable"
}

// BenchmarkFillActivation measures the generator at wire-large's typical
// chunk size on the portable loop and on the AVX2 kernel; MB/s is the
// figure fillActivation's comment quotes.
func BenchmarkFillActivation(b *testing.B) {
	saved := useAVX2
	b.Cleanup(func() { useAVX2 = saved })
	buf := make([]byte, 600_000)
	for _, avx2 := range []bool{false, true} {
		if avx2 && !simd.AVX2 {
			continue
		}
		b.Run(pathName(avx2), func(b *testing.B) {
			useAVX2 = avx2
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fillActivation(buf, uint32(i))
			}
		})
	}
}
