// Package simd reports, once per process, whether the CPU and the OS let
// the repository's assembly kernels use AVX2 and AVX-512. The packages with
// kernels (tensor, runtime) copy the answers into package-local switches
// that only their own tests flip, so each can run its tables on every path.
package simd
