package tensor

// useAVX2 selects the AVX2 tile kernel for addTerms' full 16-column tiles.
// It is decided once, from the CPU, and only the package's tests flip it.
var useAVX2 = avx2Supported()

// avx2Supported reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches: CPUID.1:ECX says AVX and OSXSAVE,
// XGETBV(0) says XMM and YMM state are enabled, CPUID.7.0:EBX says AVX2.
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

// addTiles adds the terms to every full 16-column tile of orow with the
// AVX2 kernel and returns the number of columns it covered. orow must hold
// at least one tile, off must be non-empty, ascending and non-negative, as
// both gathers build it, and val as long as off: then
// bA[off[last]+16·tiles-1] is the furthest element the kernel reads, and
// checking it once bounds every read.
func addTiles(orow, bA []float64, off []int, val []float64) int {
	tiles := len(orow) / 16
	_ = bA[off[len(off)-1]+16*tiles-1]
	addTiles16(&orow[0], &bA[0], &off[0], &val[0], len(off), tiles)
	return 16 * tiles
}

//go:noescape
func addTiles16(o, b *float64, off *int, val *float64, terms, tiles int)

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv0() uint32
