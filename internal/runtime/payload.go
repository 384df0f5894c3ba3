package runtime

import (
	"encoding/binary"
	"math"

	"distredge/internal/simd"
)

// useAVX2 selects fillActivation's AVX2 kernel for whole 32-byte blocks.
// It is simd.AVX2, and only the package's tests flip it.
var useAVX2 = simd.AVX2

// fillActivation fills an emulated payload with plausible activation data,
// deterministically derived from the seed. The runtime's payloads carry no
// real tensor values — only their byte counts matter to the protocol — but
// the wire codecs do look at the bytes: deflate's ratio and the quant
// codec's error bounds are meaningless on the all-zero buffers a fresh pool
// hands out (all-zero compresses ~1000x, which would wreck the
// predicted-vs-measured fidelity comparison).
//
// The law: every aligned 4 bytes are a little-endian float32 equal to an
// int32 half of an xorshift64 state times 2^-28, so values spread over
// [-8, 8] with full mantissa entropy (flate.BestSpeed keeps ~0.91 of the
// bytes). The multiply by a power of two is exact: the value a divide by
// 2^28 gives, at a fraction of its latency. Four independent lanes,
// seeded from the one seed by splitmix64, advance once per 32-byte block,
// each state yielding two values.
//
// On amd64 CPUs with AVX2 (useAVX2) an assembly kernel fills the whole
// blocks with the four lanes in one YMM register: three shift-and-xor
// pairs advance them, and the register read as eight int32s is already the
// block's little-endian value order. One VCVTDQ2PS converts them, rounding
// to nearest under the default MXCSR as the scalar CVTSL2SS behind
// float32(int32(x)) does; one VMULPS by 2^-28 scales them exactly (the
// smallest nonzero product, 2^-28, is a normal float32); one store writes
// the block. Its bytes are the portable loop's
// (TestFillActivationKernelBitIdentical), and the loop below is both the
// kernel's reference and the path everywhere else. BenchmarkFillActivation
// on a 2-vCPU Xeon, medians of six: 2.5 GB/s portable, 10.7 GB/s AVX2.
// That matters because on the free-wire workloads this function is the
// emulated compute's whole CPU cost.
//
// It is a stream and not a copy from a precomputed table because a table
// makes every payload periodic: the bytes stay incompressible only while
// each codec's window is shorter than the period, a property no test of
// the generator could pin for codecs not yet written.
func fillActivation(buf []byte, seed uint32) {
	// splitmix64 turns one 32-bit seed into four decorrelated lane states;
	// its outputs over distinct inputs are distinct, so at most one is 0
	// and `| 1` only guards xorshift's fixed point.
	z := uint64(seed)
	lane := func() uint64 {
		z += 0x9e3779b97f4a7c15
		x := z
		x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
		x = (x ^ x>>27) * 0x94d049bb133111eb
		return (x ^ x>>31) | 1
	}
	a, b, c, d := lane(), lane(), lane(), lane()
	i := 0
	if useAVX2 && len(buf) >= 32 {
		s := [4]uint64{a, b, c, d}
		fillBlocks(&buf[0], len(buf)/32, &s)
		a, b, c, d = s[0], s[1], s[2], s[3]
		i = len(buf) &^ 31
	}
	for ; i+32 <= len(buf); i += 32 {
		a, b, c, d = xorshift64(a), xorshift64(b), xorshift64(c), xorshift64(d)
		w := buf[i : i+32 : i+32]
		binary.LittleEndian.PutUint64(w[0:], activationPair(a))
		binary.LittleEndian.PutUint64(w[8:], activationPair(b))
		binary.LittleEndian.PutUint64(w[16:], activationPair(c))
		binary.LittleEndian.PutUint64(w[24:], activationPair(d))
	}
	// Tail of under 32 bytes: lane a alone, a possibly truncated pair at a
	// time.
	var w [8]byte
	for i < len(buf) {
		a = xorshift64(a)
		binary.LittleEndian.PutUint64(w[:], activationPair(a))
		i += copy(buf[i:], w[:])
	}
}

func xorshift64(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// activationPair maps the two int32 halves of x to two float32 values in
// [-8, 8], packed low half first.
func activationPair(x uint64) uint64 {
	const scale = 1.0 / (1 << 28)
	lo := math.Float32bits(float32(int32(x)) * scale)
	hi := math.Float32bits(float32(int32(x>>32)) * scale)
	return uint64(lo) | uint64(hi)<<32
}
