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

// mulRows is the AVX-512 kernel of one K-block of a wide product: rows
// output rows of n columns, element (i, j) plus the sum over k < terms of
// a[i·lane+k·step]·b[k·n+j] (MulABInto: lane the row length, step 1;
// MulATBInto: lane 1, step rows), with oA starting at the output, aA at
// the block's first a-element and bA at its first b-row. In the first
// block (first) the sums start from +0, not from oA. rows, terms and n
// are positive and terms is at most kBlock, the length of the kernel's
// gather arrays. The kernel masks the last chunk of a row's terms and the
// row's last 1–31 columns, so the three checks of the furthest element
// it reads or writes bound all of them.
func mulRows(oA, aA, bA []float64, rows, terms, n, lane, step int, first bool) {
	if terms > kBlock {
		panic("tensor: a K-block longer than kBlock")
	}
	_ = oA[rows*n-1]
	_ = aA[(rows-1)*lane+(terms-1)*step]
	_ = bA[terms*n-1]
	mulRows8(&oA[0], &aA[0], &bA[0], rows, terms, n, lane, step, first)
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
func mulRows8(o, a, b *float64, rows, terms, n, lane, step int, first bool)

//go:noescape
func mulNarrow8(o, a, b *float64, rows, terms, n, lane, step int)

//go:noescape
func transpose8(o, m *float64, rows, cols int)

//go:noescape
func addRowVec8(m, v *float64, rows, cols int)

//go:noescape
func sumRows8(o, m *float64, rows, cols int)
