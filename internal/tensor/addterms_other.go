//go:build !amd64

package tensor

// addTiles is never called off amd64 (useAVX2 is false there): addTerms'
// portable loops sum every column.
func addTiles(orow, bA []float64, off []int, val []float64) int { return 0 }

// Nor are the AVX-512 kernels (useAVX512 is false there too).
func addRow(orow, bA []float64, off []int, val []float64) {}
func gatherRow(off *[kBlock]int, val *[kBlock]float64, arow []float64, o, n int) int {
	return 0
}
func gatherCol(off *[kBlock]int, val *[kBlock]float64, aA []float64, i, m, k0, k1, n int) int {
	return 0
}
func mulNarrow(oA, aA, bA []float64, rows, terms, n, lane, step int) {}
func transpose(oA, mA []float64, rows, cols int)                     {}
func addRowVec(mA, v []float64, rows, cols int)                      {}
func addPattern(mA, pat []float64)                                   {}
func sumRows(o, mA []float64, rows, cols int)                        {}

// Nor are the elementwise kernels: elementwise.go's scalar loops run.
func relu4(x *float64, n int)                          {}
func reluGrad4(d, y *float64, n int)                   {}
func add4(dst, src *float64, n int)                    {}
func blend4(dst, src *float64, n int, t, omt float64)  {}
func adam4(p, grad, m, v *float64, n int, c *AdamCoef) {}
