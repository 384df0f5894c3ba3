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

// addRow adds the terms to every column of orow with the AVX-512 kernel.
// orow must be non-empty; the rest is addTiles': off non-empty, ascending
// and non-negative, val as long as off, and then bA[off[last]+len(orow)-1] is
// the furthest element the kernel reads, so checking it once bounds every
// read. The kernel masks the row's last 1–31 columns, so it reads and
// writes nothing past orow and nothing of b past that element.
func addRow(orow, bA []float64, off []int, val []float64) {
	n := len(orow)
	_ = bA[off[len(off)-1]+n-1]
	addRow8(&orow[0], &bA[0], &off[0], &val[0], len(off), n)
}

// gatherRow is MulABInto's gather on the AVX-512 kernel: it writes the
// nonzero elements of arow to val and their b-row offsets o, o+n, … to
// off, in order, and returns how many there are. arow holds 1 to kBlock
// elements (the val index below checks it): the kernel stores
// whole eight-lane vectors at the count so far, so the arrays must have
// room for eight past any count it can reach.
func gatherRow(off *[kBlock]int, val *[kBlock]float64, arow []float64, o, n int) int {
	_ = val[len(arow)-1]
	return gatherRow8(&off[0], &val[0], &arow[0], len(arow), o, n)
}

// gatherCol is MulATBInto's gather on the AVX-512 kernel: gatherRow over
// column i of the m-column matrix aA, rows k0 to k1 (1 to kBlock of
// them), with offsets k·n. aA[(k1-1)·m+i] is the furthest element the
// kernel reads, and checking it once bounds every read.
func gatherCol(off *[kBlock]int, val *[kBlock]float64, aA []float64, i, m, k0, k1, n int) int {
	_ = val[k1-k0-1]
	_ = aA[(k1-1)*m+i]
	return gatherCol8(&off[0], &val[0], &aA[k0*m+i], m, k1-k0, k0*n, n)
}

// mulNarrow is the AVX-512 kernel of a narrow product: rows output rows
// of n columns (0 < n < 8), element (i, j) the sum over k < terms of
// a[i·lane+k·step]·b[k·n+j] (MulABInto: lane terms, step 1; MulATBInto:
// lane 1, step rows), terms > 0. The kernel masks the last group's rows,
// so the three checks of the furthest element it reads or writes bound
// all of them.
func mulNarrow(oA, aA, bA []float64, rows, terms, n, lane, step int) {
	_ = oA[rows*n-1]
	_ = aA[(rows-1)*lane+(terms-1)*step]
	_ = bA[terms*n-1]
	mulNarrow8(&oA[0], &aA[0], &bA[0], rows, terms, n, lane, step)
}

// transpose writes the transpose of the rows×cols matrix mA to oA with the
// AVX-512 kernel; rows and cols are positive.
func transpose(oA, mA []float64, rows, cols int) {
	_ = oA[rows*cols-1]
	_ = mA[rows*cols-1]
	transpose8(&oA[0], &mA[0], rows, cols)
}

// addRowVec adds v to every row of the rows×cols matrix mA with the
// AVX-512 kernel; rows and cols are positive.
func addRowVec(mA, v []float64, rows, cols int) {
	_ = mA[rows*cols-1]
	_ = v[cols-1]
	addRowVec8(&mA[0], &v[0], rows, cols)
}

// sumRows writes the column sums of the rows×cols matrix mA to o with the
// AVX-512 kernel; rows and cols are positive.
func sumRows(o, mA []float64, rows, cols int) {
	_ = o[cols-1]
	_ = mA[rows*cols-1]
	sumRows8(&o[0], &mA[0], rows, cols)
}

//go:noescape
func addTiles16(o, b *float64, off *int, val *float64, terms, tiles int)

//go:noescape
func addRow8(o, b *float64, off *int, val *float64, terms, n int)

//go:noescape
func gatherRow8(off *int, val *float64, a *float64, terms, o, n int) int

//go:noescape
func gatherCol8(off *int, val *float64, a *float64, m, terms, o, n int) int

//go:noescape
func mulNarrow8(o, a, b *float64, rows, terms, n, lane, step int)

//go:noescape
func transpose8(o, m *float64, rows, cols int)

//go:noescape
func addRowVec8(m, v *float64, rows, cols int)

//go:noescape
func sumRows8(o, m *float64, rows, cols int)
