//go:build !amd64

package tensor

// addTiles is never called off amd64 (useAVX2 is false there): addTerms'
// portable loops sum every column.
func addTiles(orow, bA []float64, off []int, val []float64) int { return 0 }

// Nor are the AVX-512 kernels (useAVX512 is false there too).
func mulRows(oA, aA, bA []float64, rows, terms, n, lane, step int, first bool) {}
func mulNarrow(oA, aA, bA []float64, rows, terms, n, lane, step int)           {}
func transpose(oA, mA []float64, rows, cols int)                               {}
func addRowVec(mA, v []float64, rows, cols int)                                {}
func sumRows(o, mA []float64, rows, cols int)                                  {}

// Nor are the elementwise kernels: elementwise.go's scalar loops run.
func relu4(x *float64, n int)                          {}
func reluGrad4(d, y *float64, n int)                   {}
func add4(dst, src *float64, n int)                    {}
func blend4(dst, src *float64, n int, t, omt float64)  {}
func adam4(p, grad, m, v *float64, n int, c *AdamCoef) {}
