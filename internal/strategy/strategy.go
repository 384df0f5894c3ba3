// Package strategy defines CNN inference distribution strategies: the
// horizontal partition of a model into layer-volumes and the vertical split
// of each layer-volume into split-parts allocated to service providers
// (terms from Section III-A of the DistrEdge paper).
package strategy

import (
	"fmt"
	"sort"

	"distredge/internal/cnn"
)

// Strategy is a complete distribution strategy.
//
// Boundaries is the partition scheme: ascending layer indices with
// Boundaries[0] == 0 and Boundaries[len-1] == the number of splittable
// layers; volume v spans layers [Boundaries[v], Boundaries[v+1]).
//
// Splits holds one split decision per volume: the cut points
// (x_1 ... x_{|D|-1}) on the height dimension of the volume's last layer
// (Eq. 6). Provider i computes output rows [x_{i-1}, x_i) with x_0 = 0 and
// x_{|D|} = H. Cut points are sorted; empty parts (x_{i-1} == x_i) are legal
// and mean the provider is idle for that volume (Section VI-(2)).
type Strategy struct {
	Boundaries []int
	Splits     [][]int
}

// NumVolumes returns the number of layer-volumes in the strategy.
func (s *Strategy) NumVolumes() int { return len(s.Boundaries) - 1 }

// Volume returns the layers of volume v of the model.
func Volume(m *cnn.Model, boundaries []int, v int) []cnn.Layer {
	return m.SplittableLayers()[boundaries[v]:boundaries[v+1]]
}

// VolumeHeight returns the output height of the last layer of volume v.
func VolumeHeight(m *cnn.Model, boundaries []int, v int) int {
	layers := Volume(m, boundaries, v)
	return layers[len(layers)-1].OutHeight()
}

// PartRange returns the output rows provider i computes in volume v.
func (s *Strategy) PartRange(m *cnn.Model, v, i int) cnn.RowRange {
	h := VolumeHeight(m, s.Boundaries, v)
	return CutRange(s.Splits[v], h, i)
}

// CutRange converts cut points into provider i's row range on a height-h
// layer: [cuts[i-1], cuts[i]) with the implicit 0 and h sentinels.
func CutRange(cuts []int, h, i int) cnn.RowRange {
	lo := 0
	if i > 0 {
		lo = cuts[i-1]
	}
	hi := h
	if i < len(cuts) {
		hi = cuts[i]
	}
	return cnn.RowRange{Lo: lo, Hi: hi}
}

// NumProviders returns the provider count implied by the split decisions.
func (s *Strategy) NumProviders() int {
	if len(s.Splits) == 0 {
		return 0
	}
	return len(s.Splits[0]) + 1
}

// Validate checks the strategy against a model and provider count.
func (s *Strategy) Validate(m *cnn.Model, providers int) error {
	n := m.NumSplittable()
	if len(s.Boundaries) < 2 {
		return fmt.Errorf("strategy: need at least 2 boundaries, got %d", len(s.Boundaries))
	}
	if s.Boundaries[0] != 0 || s.Boundaries[len(s.Boundaries)-1] != n {
		return fmt.Errorf("strategy: boundaries must span [0,%d], got %v", n, s.Boundaries)
	}
	if !sort.IntsAreSorted(s.Boundaries) {
		return fmt.Errorf("strategy: boundaries not sorted: %v", s.Boundaries)
	}
	for i := 1; i < len(s.Boundaries); i++ {
		if s.Boundaries[i] == s.Boundaries[i-1] {
			return fmt.Errorf("strategy: empty volume at boundary %d", s.Boundaries[i])
		}
	}
	if len(s.Splits) != s.NumVolumes() {
		return fmt.Errorf("strategy: %d split decisions for %d volumes", len(s.Splits), s.NumVolumes())
	}
	for v, cuts := range s.Splits {
		if len(cuts) != providers-1 {
			return fmt.Errorf("strategy: volume %d has %d cuts, want %d", v, len(cuts), providers-1)
		}
		h := VolumeHeight(m, s.Boundaries, v)
		prev := 0
		for j, c := range cuts {
			if c < prev || c > h {
				return fmt.Errorf("strategy: volume %d cut %d = %d out of order or range [0,%d]", v, j, c, h)
			}
			prev = c
		}
	}
	return nil
}

// Clone returns a deep copy of the strategy.
func (s *Strategy) Clone() *Strategy {
	c := &Strategy{Boundaries: append([]int(nil), s.Boundaries...)}
	c.Splits = make([][]int, len(s.Splits))
	n := 0
	for _, cuts := range s.Splits {
		n += len(cuts)
	}
	flat := make([]int, n) // one backing array for every volume's cuts
	for i, cuts := range s.Splits {
		if len(cuts) > 0 { // an empty row stays nil, as append made it
			c.Splits[i], flat = flat[:len(cuts):len(cuts)], flat[len(cuts):]
			copy(c.Splits[i], cuts)
		}
	}
	return c
}

// LayerByLayer returns the partition scheme that makes every splittable
// layer its own volume (CoEdge/MoDNN/MeDNN style).
func LayerByLayer(m *cnn.Model) []int {
	n := m.NumSplittable()
	b := make([]int, n+1)
	for i := range b {
		b[i] = i
	}
	return b
}

// SingleVolume returns the partition scheme with one volume spanning all
// splittable layers (DeepThings style).
func SingleVolume(m *cnn.Model) []int { return []int{0, m.NumSplittable()} }

// PoolBoundaries returns the partition scheme that cuts after each
// max-pooling layer (the natural fused-block boundaries DeeperThings-style
// methods use).
func PoolBoundaries(m *cnn.Model) []int {
	b := []int{0}
	layers := m.SplittableLayers()
	for i, l := range layers {
		if l.Kind == cnn.MaxPool && i+1 < len(layers) {
			b = append(b, i+1)
		}
	}
	if b[len(b)-1] != len(layers) {
		b = append(b, len(layers))
	}
	return b
}

// EqualCuts returns cut points dividing height h into n (nearly) equal
// parts — the equal-split of DeepThings/DeeperThings.
func EqualCuts(h, n int) []int {
	cuts := make([]int, n-1)
	for i := 1; i < n; i++ {
		cuts[i-1] = i * h / n
	}
	return cuts
}

// ProportionalCuts returns cut points dividing height h proportionally to
// the given nonnegative weights (the linear-ratio split of CoEdge, MoDNN,
// MeDNN, AOFL). Weights summing to zero yield everything on provider 0.
func ProportionalCuts(h int, weights []float64) []int {
	return ProportionalCutsInto(make([]int, len(weights)-1), h, weights)
}

// ProportionalCutsInto is ProportionalCuts writing into dst, which must have
// one entry fewer than weights.
func ProportionalCutsInto(dst []int, h int, weights []float64) []int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	cuts := dst
	if total <= 0 {
		for i := range cuts {
			cuts[i] = h
		}
		return cuts
	}
	var acc float64
	for i := range cuts {
		w := weights[i]
		if w < 0 {
			w = 0
		}
		acc += w
		cuts[i] = int(float64(h)*acc/total + 0.5)
		if i > 0 && cuts[i] < cuts[i-1] {
			cuts[i] = cuts[i-1]
		}
		if cuts[i] > h {
			cuts[i] = h
		}
	}
	return cuts
}

// AllOnProvider returns cut points assigning every row of a height-h layer
// to the single given provider (the Offload baseline).
func AllOnProvider(h, n, provider int) []int {
	return AllOnProviderInto(make([]int, n-1), h, provider)
}

// AllOnProviderInto is AllOnProvider writing the n-1 cut points into dst.
func AllOnProviderInto(dst []int, h, provider int) []int {
	for i := range dst {
		if i < provider {
			dst[i] = 0
		} else {
			dst[i] = h
		}
	}
	return dst
}

// Stage builds the stage-pipelined layout over n providers: volume v of
// the given boundaries runs entirely on provider v mod n, so a filled
// admission window pays only the slowest stage per image instead of the
// sum. The strategy shares boundaries with the caller.
func Stage(m *cnn.Model, boundaries []int, n int) *Strategy {
	s := &Strategy{Boundaries: boundaries}
	for v := 0; v+1 < len(boundaries); v++ {
		s.Splits = append(s.Splits, AllOnProvider(VolumeHeight(m, boundaries, v), n, v%n))
	}
	return s
}
