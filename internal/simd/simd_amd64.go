package simd

// AVX2 reports whether the CPU has AVX2 and the OS saves the YMM registers
// across context switches. It is decided once, at start-up.
var AVX2 = avx2Supported()

// AVX512 reports whether the CPU has AVX-512F and AVX-512DQ and the OS
// saves the opmask and full ZMM registers across context switches. It is
// decided once, at start-up.
var AVX512 = avx512Supported()

// osXCR0 reads CPUID.1:ECX (AVX and OSXSAVE) and, when XGETBV may be
// executed, returns XGETBV(0): the register state the OS saves.
func osXCR0() (uint32, bool) {
	const osxsave, avx = 1 << 27, 1 << 28
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return 0, false
	}
	_, _, c, _ := cpuid(1, 0)
	if c&(osxsave|avx) != osxsave|avx {
		return 0, false
	}
	return xgetbv0(), true
}

// avx2Supported reads the answer from the CPU: CPUID.1:ECX says AVX and
// OSXSAVE, XGETBV(0) says XMM and YMM state are enabled, CPUID.7.0:EBX
// says AVX2.
func avx2Supported() bool {
	xcr0, ok := osXCR0()
	if !ok || xcr0&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}

// avx512Supported is avx2Supported's question for AVX-512: XGETBV(0) must
// say XMM, YMM, opmask, ZMM0–15 upper halves and ZMM16–31 state are
// enabled (bits 1, 2, 5, 6, 7), and CPUID.7.0:EBX must say AVX-512F (bit
// 16) and AVX-512DQ (bit 17).
func avx512Supported() bool {
	const f, dq = 1 << 16, 1 << 17
	xcr0, ok := osXCR0()
	if !ok || xcr0&0xE6 != 0xE6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(f|dq) == f|dq
}

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv0() uint32
