package cnn

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInputRowsInterior(t *testing.T) {
	// In the interior, InputRows must match the paper's Eq. 1:
	// h_in = (h_out-1)*S + F.
	l := Layer{Kind: Conv, Win: 224, Hin: 224, Cin: 3, Cout: 64, F: 3, S: 1, P: 1}
	r := InputRows(l, RowRange{100, 120})
	if r.Len() != (20-1)*1+3 {
		t.Errorf("interior input rows = %d, want %d", r.Len(), (20-1)*1+3)
	}
	if r.Lo != 100*1-1 || r.Hi != 119*1-1+3 {
		t.Errorf("interior range = %v, want [99,121)", r)
	}
}

func TestInputRowsClamping(t *testing.T) {
	l := Layer{Kind: Conv, Win: 224, Hin: 224, Cin: 3, Cout: 64, F: 3, S: 1, P: 1}
	top := InputRows(l, RowRange{0, 10})
	if top.Lo != 0 {
		t.Errorf("top range should clamp at 0, got %v", top)
	}
	bot := InputRows(l, RowRange{214, 224})
	if bot.Hi != 224 {
		t.Errorf("bottom range should clamp at Hin, got %v", bot)
	}
	full := InputRows(l, RowRange{0, l.OutHeight()})
	if full != (RowRange{0, 224}) {
		t.Errorf("full output requires full input, got %v", full)
	}
}

func TestInputRowsEmpty(t *testing.T) {
	l := Layer{Kind: Conv, Win: 10, Hin: 10, Cin: 3, Cout: 8, F: 3, S: 1, P: 1}
	if got := InputRows(l, RowRange{5, 5}); !got.Empty() {
		t.Errorf("empty output should need empty input, got %v", got)
	}
}

func TestInputRowsStride(t *testing.T) {
	// Pool 2x2 stride 2: output rows [a,b) need input [2a, 2b).
	l := Layer{Kind: MaxPool, Win: 224, Hin: 224, Cin: 64, Cout: 64, F: 2, S: 2}
	r := InputRows(l, RowRange{10, 20})
	if r != (RowRange{20, 40}) {
		t.Errorf("pool input range = %v, want [20,40)", r)
	}
}

func vggVolume() []Layer {
	m := VGG16()
	return m.SplittableLayers()[:4] // conv1_1 conv1_2 pool1 conv2_1
}

func TestVolumeRangesChain(t *testing.T) {
	layers := vggVolume()
	out := RowRange{30, 60}
	ranges := VolumeRanges(layers, out)
	if len(ranges) != len(layers) {
		t.Fatalf("got %d ranges, want %d", len(ranges), len(layers))
	}
	if ranges[len(ranges)-1] != out {
		t.Errorf("last range = %v, want %v", ranges[len(ranges)-1], out)
	}
	// Each intermediate range must be what the next layer needs.
	for i := len(layers) - 1; i >= 1; i-- {
		want := InputRows(layers[i], ranges[i])
		if ranges[i-1] != want {
			t.Errorf("range[%d] = %v, want %v", i-1, ranges[i-1], want)
		}
	}
}

func TestVolumeInputRowsMonotone(t *testing.T) {
	// Property: growing the output range never shrinks the input range.
	layers := vggVolume()
	h := layers[len(layers)-1].OutHeight()
	f := func(aRaw, bRaw, gRaw uint16) bool {
		a := int(aRaw) % h
		b := a + 1 + int(bRaw)%(h-a)
		grow := int(gRaw) % (h - b + 1)
		small := VolumeInputRows(layers, RowRange{a, b})
		big := VolumeInputRows(layers, RowRange{a, b + grow})
		return big.Lo <= small.Lo && big.Hi >= small.Hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// volumeOps is the operation count of the split-part producing out: each
// layer's OpsRows over the rows VolumeRanges assigns it, halo recompute
// included, as device sums it.
func volumeOps(layers []Layer, out RowRange) float64 {
	var sum float64
	for i, r := range VolumeRanges(layers, out) {
		sum += layers[i].OpsRows(r.Len())
	}
	return sum
}

func TestVolumeOpsSuperadditive(t *testing.T) {
	// Property: splitting a volume into two parts costs at least as much as
	// computing it whole (halo recompute), and exactly as much for a single
	// full-range part.
	layers := vggVolume()
	h := layers[len(layers)-1].OutHeight()
	whole := volumeOps(layers, RowRange{0, h})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		cut := 1 + rng.Intn(h-1)
		split := volumeOps(layers, RowRange{0, cut}) + volumeOps(layers, RowRange{cut, h})
		if split < whole-1e-6 {
			t.Fatalf("split ops %g < whole ops %g at cut %d", split, whole, cut)
		}
	}
	if got := volumeOps(layers, RowRange{0, h}); got != whole {
		t.Errorf("full-range ops changed: %g != %g", got, whole)
	}
}

func TestVolumeOpsSingleLayerExact(t *testing.T) {
	// For a single-layer volume there is no halo: ops must be exactly
	// additive across a partition of the output rows.
	l := Layer{Kind: Conv, Win: 56, Hin: 56, Cin: 64, Cout: 128, F: 3, S: 1, P: 1}
	layers := []Layer{l}
	h := l.OutHeight()
	total := volumeOps(layers, RowRange{0, h})
	for cut := 1; cut < h; cut += 7 {
		sum := volumeOps(layers, RowRange{0, cut}) + volumeOps(layers, RowRange{cut, h})
		if sum != total {
			t.Fatalf("single-layer split ops %g != total %g at cut %d", sum, total, cut)
		}
	}
}

func TestVolumeInputBytes(t *testing.T) {
	// A split-part receives its VolumeInputRows at InRowBytes each: the
	// whole volume's input is the first layer's input, an empty part none.
	layers := vggVolume()
	inBytes := func(out RowRange) float64 {
		return float64(VolumeInputRows(layers, out).Len()) * layers[0].InRowBytes()
	}
	full := inBytes(RowRange{0, layers[len(layers)-1].OutHeight()})
	want := layers[0].InputBytes()
	if full != want {
		t.Errorf("full volume input bytes = %g, want %g", full, want)
	}
	if inBytes(RowRange{3, 3}) != 0 {
		t.Error("empty part should need 0 input bytes")
	}
}

func TestRowRangeHelpers(t *testing.T) {
	if (RowRange{3, 3}).Len() != 0 || (RowRange{5, 2}).Len() != 0 {
		t.Error("degenerate ranges must have Len 0")
	}
	got := (RowRange{0, 10}).Intersect(RowRange{5, 20})
	if got != (RowRange{5, 10}) {
		t.Errorf("Intersect = %v, want [5,10)", got)
	}
	if !(RowRange{0, 3}).Intersect(RowRange{7, 9}).Empty() {
		t.Error("disjoint intersect must be empty")
	}
	if (RowRange{1, 4}).String() != "[1,4)" {
		t.Error("String format mismatch")
	}
}

func TestIntersectCommutative(t *testing.T) {
	f := func(a, b, c, d int8) bool {
		r1 := RowRange{int(a), int(b)}
		r2 := RowRange{int(c), int(d)}
		x, y := r1.Intersect(r2), r2.Intersect(r1)
		return x.Len() == y.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
