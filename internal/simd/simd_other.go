//go:build !amd64

package simd

// AVX2 is false off amd64: there are no kernels to select.
var AVX2 = false
