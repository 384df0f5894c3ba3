package tensor

// The AVX2 kernels of elementwise.go. Each takes n, a positive multiple of
// four; the callers check every slice's length against n first.

//go:noescape
func relu4(x *float64, n int)

//go:noescape
func reluGrad4(d, y *float64, n int)

//go:noescape
func add4(dst, src *float64, n int)

//go:noescape
func blend4(dst, src *float64, n int, t, omt float64)

//go:noescape
func adam4(p, grad, m, v *float64, n int, c *AdamCoef)
