package simd

// AVX2 reports whether the CPU has AVX2 and the OS saves the YMM registers
// across context switches. It is decided once, at start-up.
var AVX2 = avx2Supported()

// avx2Supported reads the answer from the CPU: CPUID.1:ECX says AVX and
// OSXSAVE, XGETBV(0) says XMM and YMM state are enabled, CPUID.7.0:EBX
// says AVX2.
func avx2Supported() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c, _ := cpuid(1, 0)
	if c&(osxsave|avx) != osxsave|avx || xgetbv0()&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv0() uint32
