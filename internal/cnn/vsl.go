package cnn

import "fmt"

// RowRange is a half-open interval [Lo, Hi) of row indices on some layer's
// output (or input) height dimension.
type RowRange struct {
	Lo, Hi int
}

// Len returns the number of rows in the range (never negative).
func (r RowRange) Len() int {
	if r.Hi <= r.Lo {
		return 0
	}
	return r.Hi - r.Lo
}

// Empty reports whether the range contains no rows.
func (r RowRange) Empty() bool { return r.Len() == 0 }

// Intersect returns the overlap of two ranges (possibly empty).
func (r RowRange) Intersect(o RowRange) RowRange {
	lo, hi := r.Lo, r.Hi
	if o.Lo > lo {
		lo = o.Lo
	}
	if o.Hi < hi {
		hi = o.Hi
	}
	if hi < lo {
		hi = lo
	}
	return RowRange{lo, hi}
}

// String formats the range as [lo,hi).
func (r RowRange) String() string { return fmt.Sprintf("[%d,%d)", r.Lo, r.Hi) }

// InputRows returns the input row range of layer l required to compute the
// output rows out. This is the exact, padding-aware form of the paper's
// Eq. 1-2: output row y reads input rows [y*S-P, y*S-P+F), so the range
// [a,b) reads [a*S-P, (b-1)*S-P+F), clamped to the layer's input extent.
// In the interior (no clamping) this reduces to h_in = (h_out-1)*S + F.
func InputRows(l Layer, out RowRange) RowRange {
	if out.Empty() {
		return RowRange{}
	}
	lo := out.Lo*l.S - l.P
	hi := (out.Hi-1)*l.S - l.P + l.F
	if lo < 0 {
		lo = 0
	}
	if hi > l.Hin {
		hi = l.Hin
	}
	if hi < lo {
		hi = lo
	}
	return RowRange{lo, hi}
}

// VolumeRanges applies the Vertical-Splitting Law across a layer-volume:
// given the volume's layers and the desired output rows of the *last* layer,
// it returns the output row range of every layer in the volume (the range
// each sub-layer must produce). result[len(layers)-1] == out, and the input
// rows the split-part needs from the volume's input are
// InputRows(layers[0], result[0]).
func VolumeRanges(layers []Layer, out RowRange) []RowRange {
	n := len(layers)
	res := make([]RowRange, n)
	cur := out
	for i := n - 1; i >= 0; i-- {
		res[i] = cur
		cur = InputRows(layers[i], cur)
	}
	return res
}

// VolumeRangesInto is VolumeRanges writing into a caller-provided buffer,
// growing it if needed — the allocation-free form used by hot paths (the
// device latency cache, plan compilation). The returned slice has
// len(layers) entries and aliases dst when it was large enough.
func VolumeRangesInto(dst []RowRange, layers []Layer, out RowRange) []RowRange {
	n := len(layers)
	if cap(dst) < n {
		dst = make([]RowRange, n)
	}
	dst = dst[:n]
	cur := out
	for i := n - 1; i >= 0; i-- {
		dst[i] = cur
		cur = InputRows(layers[i], cur)
	}
	return dst
}

// VolumeInputRows returns the input row range (on the volume's input tensor)
// required for the last layer of the volume to produce out.
func VolumeInputRows(layers []Layer, out RowRange) RowRange {
	cur := out
	for i := len(layers) - 1; i >= 0; i-- {
		cur = InputRows(layers[i], cur)
	}
	return cur
}
