package partition

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"distredge/internal/cnn"
)

// The reference LC-PSS: the scorer as it was before volume scored each
// layer-volume in one propagation. volumeOps, scatterBytes and crossBytes
// each walk every part back through the volume, each with its own memo,
// every candidate scheme is a fresh slice, and the row maps clamp with
// math.Max and math.Min. Search must return what refSearch returns, and
// volume what the three scorers return, bit for bit.
type refSearcher struct {
	layers                     []layerRows
	gatherBytes                float64
	cfg                        Config
	fracs                      [][]float64
	oneVolOps, oneVolBytes     float64
	kappa                      float64
	opsMemo, crossMemo, inMemo map[[2]int]float64
}

func newRefSearcher(m *cnn.Model, cfg Config, fracs [][]float64) *refSearcher {
	layers := m.SplittableLayers()
	s := &refSearcher{
		gatherBytes: layers[len(layers)-1].OutputBytes(),
		cfg:         cfg,
		fracs:       fracs,
		opsMemo:     make(map[[2]int]float64),
		crossMemo:   make(map[[2]int]float64),
		inMemo:      make(map[[2]int]float64),
	}
	for _, l := range layers {
		s.layers = append(s.layers, rowsOf(l))
	}
	return s
}

func refSearch(m *cnn.Model, cfg Config) []int {
	cfg = cfg.withDefaults()
	n := m.NumSplittable()
	rng := rand.New(rand.NewSource(cfg.Seed))
	fracs := make([][]float64, cfg.NumRandomSplits)
	for i := range fracs {
		f := make([]float64, cfg.Providers-1)
		for j := range f {
			f[j] = rng.Float64()
		}
		sort.Float64s(f)
		fracs[i] = f
	}
	s := newRefSearcher(m, cfg, fracs)
	s.oneVolOps, s.oneVolBytes = s.rawScore([]int{0, n})
	lbl := make([]int, n+1)
	for i := range lbl {
		lbl[i] = i
	}
	lblOps, lblTrans := s.rawScore(lbl)
	oRange := 1 - lblOps/s.oneVolOps
	tRange := lblTrans/s.oneVolBytes - 1
	s.kappa = 1
	if oRange > 0 && tRange > 0 {
		s.kappa = oRange / (2 * tRange)
	}
	rp := []int{0, n}
	for {
		rStar := append([]int(nil), rp...)
		for i := 0; i+1 < len(rp); i++ {
			bestC := s.score(rStar)
			bestJ := -1
			for j := rp[i] + 1; j < rp[i+1]; j++ {
				if c := s.score(insertSorted(nil, rStar, j)); c < bestC {
					bestC = c
					bestJ = j
				}
			}
			if bestJ >= 0 {
				rStar = insertSorted(nil, rStar, bestJ)
			}
		}
		if len(rStar) == len(rp) {
			return rp
		}
		rp = rStar
	}
}

func (s *refSearcher) rawScore(boundaries []int) (ops, trans float64) {
	for v := 0; v+1 < len(boundaries); v++ {
		a, b := boundaries[v], boundaries[v+1]
		ops += s.volumeOps(a, b)
		if v == 0 {
			trans += s.scatterBytes(a, b)
		} else {
			trans += s.crossBytes(a, b)
		}
	}
	trans += s.gatherBytes
	return ops, trans
}

func (s *refSearcher) score(boundaries []int) float64 {
	ops, trans := s.rawScore(boundaries)
	o := ops / s.oneVolOps
	t := s.kappa * trans / s.oneVolBytes
	return float64(s.cfg.Alpha*t) + float64((1-s.cfg.Alpha)*o)
}

func refInputInterval(l *layerRows, out interval) interval {
	if out.len() == 0 {
		return interval{}
	}
	lo := float64(out.Lo*l.s) - l.p
	hi := float64(out.Hi*l.s) + l.fs - l.p
	lo = math.Max(lo, 0)
	hi = math.Min(hi, l.hin)
	if hi < lo {
		hi = lo
	}
	return interval{lo, hi}
}

func refIntersect(iv, o interval) float64 {
	lo, hi := math.Max(iv.Lo, o.Lo), math.Min(iv.Hi, o.Hi)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

func refVolumeInputInterval(layers []layerRows, part interval) interval {
	cur := part
	for i := len(layers) - 1; i >= 0; i-- {
		cur = refInputInterval(&layers[i], cur)
	}
	return cur
}

func (s *refSearcher) volumeOps(a, b int) float64 {
	key := [2]int{a, b}
	if v, ok := s.opsMemo[key]; ok {
		return v
	}
	layers := s.layers[a:b]
	h := layers[len(layers)-1].outH
	var sum float64
	for _, frac := range s.fracs {
		for _, part := range partIntervals(nil, frac, h, s.cfg.Providers) {
			cur := part
			for i := len(layers) - 1; i >= 0; i-- {
				sum += float64(layers[i].opsRow * cur.len())
				cur = refInputInterval(&layers[i], cur)
			}
		}
	}
	v := sum / float64(len(s.fracs))
	s.opsMemo[key] = v
	return v
}

func (s *refSearcher) scatterBytes(a, b int) float64 {
	key := [2]int{a, b}
	if v, ok := s.inMemo[key]; ok {
		return v
	}
	layers := s.layers[a:b]
	h := layers[len(layers)-1].outH
	rowBytes := layers[0].inRowBytes
	var sum float64
	for _, frac := range s.fracs {
		for _, part := range partIntervals(nil, frac, h, s.cfg.Providers) {
			sum += float64(refVolumeInputInterval(layers, part).len() * rowBytes)
		}
	}
	v := sum / float64(len(s.fracs))
	s.inMemo[key] = v
	return v
}

func (s *refSearcher) crossBytes(a, b int) float64 {
	key := [2]int{a, b}
	if v, ok := s.crossMemo[key]; ok {
		return v
	}
	layers := s.layers[a:b]
	h := layers[len(layers)-1].outH
	prevH := s.layers[a-1].outH
	rowBytes := layers[0].inRowBytes
	var sum float64
	for _, frac := range s.fracs {
		parts := partIntervals(nil, frac, h, s.cfg.Providers)
		prevParts := partIntervals(nil, frac, prevH, s.cfg.Providers)
		for i, part := range parts {
			in := refVolumeInputInterval(layers, part)
			if in.len() == 0 {
				continue
			}
			for j, own := range prevParts {
				if j == i {
					continue
				}
				sum += float64(refIntersect(in, own) * rowBytes)
			}
		}
	}
	v := sum / float64(len(s.fracs))
	s.crossMemo[key] = v
	return v
}

// TestVolumeMatchesReference holds volume(a, b) to the reference scorers bit
// for bit, for every volume of every zoo model on 2 to 16 providers, under
// fixed fraction vectors (even, skewed, empty parts included) and seeded
// ones.
func TestVolumeMatchesReference(t *testing.T) {
	if raceEnabled {
		t.Skip("no shared state; the race detector only slows the arithmetic down")
	}
	for _, name := range cnn.ZooNames() {
		m := cnn.Zoo()[name]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			volumeMatchesReference(t, m)
		})
	}
}

func volumeMatchesReference(t *testing.T, m *cnn.Model) {
	for _, n := range []int{2, 4, 5, 6, 16} {
		even, skewed, rng := make([]float64, n-1), make([]float64, n-1), rand.New(rand.NewSource(int64(n)))
		for j := range even {
			even[j] = float64(j+1) / float64(n)
			skewed[j] = math.Pow(float64(j+1)/float64(n), 3)
		}
		fixed := [][]float64{even, skewed, make([]float64, n-1)}
		seeded := make([][]float64, 12)
		for i := range seeded {
			seeded[i] = make([]float64, n-1)
			for j := range seeded[i] {
				seeded[i][j] = rng.Float64()
			}
			sort.Float64s(seeded[i])
		}
		for _, fracs := range [][][]float64{fixed, seeded} {
			cfg := Config{Alpha: 0.75, NumRandomSplits: len(fracs), Providers: n}
			s, ref := newSearcher(m, cfg), newRefSearcher(m, cfg, fracs)
			s.fracs = fracs
			L := len(s.layers)
			for a := 0; a < L; a++ {
				for b := a + 1; b <= L; b++ {
					ops, trans := s.volume(a, b)
					wantTrans := ref.scatterBytes(a, b)
					if a > 0 {
						wantTrans = ref.crossBytes(a, b)
					}
					if wantOps := ref.volumeOps(a, b); math.Float64bits(ops) != math.Float64bits(wantOps) ||
						math.Float64bits(trans) != math.Float64bits(wantTrans) {
						t.Fatalf("%d providers, volume [%d,%d): (%v, %v), reference (%v, %v)",
							n, a, b, ops, trans, wantOps, wantTrans)
					}
					// A memoised answer is the scored one.
					if o, tr := s.volume(a, b); o != ops || tr != trans {
						t.Fatalf("%d providers, volume [%d,%d): memo answered (%v, %v) after (%v, %v)",
							n, a, b, o, tr, ops, trans)
					}
				}
			}
		}
	}
}

// TestSearchMatchesReference holds Search's boundaries to the reference
// Algorithm 1 over the zoo, five trade-offs, three split-set sizes and two
// seeds.
func TestSearchMatchesReference(t *testing.T) {
	if raceEnabled {
		t.Skip("no shared state; the race detector only slows the arithmetic down")
	}
	for _, name := range cnn.ZooNames() {
		m := cnn.Zoo()[name]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			searchMatchesReference(t, m)
		})
	}
}

func searchMatchesReference(t *testing.T, m *cnn.Model) {
	for _, alpha := range []float64{0, 0.25, 0.5, 0.75, 1} {
		for _, r := range []int{20, 50, 100} {
			for _, seed := range []int64{1, 2} {
				cfg := Config{Alpha: alpha, NumRandomSplits: r, Providers: 3 + int(seed), Seed: seed}
				got, err := Search(m, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if want := refSearch(m, cfg); !slices.Equal(got, want) {
					t.Errorf("%+v: %v, reference %v", cfg, got, want)
				}
			}
		}
	}
}
