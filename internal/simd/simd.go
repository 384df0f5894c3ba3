// Package simd reports, once per process, whether the CPU and the OS let
// the repository's assembly kernels use AVX2. The packages with kernels
// (tensor, runtime) copy AVX2 into a package-local switch that only their
// own tests flip, so each can run its tables on both paths.
package simd
