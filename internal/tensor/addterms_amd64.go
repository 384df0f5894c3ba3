package tensor

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
