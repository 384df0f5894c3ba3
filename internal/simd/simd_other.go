//go:build !amd64

package simd

// AVX2 and AVX512 are false off amd64: there are no kernels to select.
var AVX2, AVX512 = false, false
