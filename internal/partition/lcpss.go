// Package partition implements LC-PSS — Layer Configuration based Partition
// Scheme Search (Algorithm 1 of the DistrEdge paper): the greedy search for
// the horizontal partition of a CNN into layer-volumes, scored by
//
//	Cp = α·T + (1−α)·O                         (Eq. 3)
//
// where T is the total transmission volume and O the total operation count
// (including VSL halo recompute), each averaged over a set of random split
// decisions R^r_s and normalised so α trades off two O(1) quantities.
package partition

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"distredge/internal/cnn"
)

// Config holds the LC-PSS hyper-parameters. Paper defaults (Section V):
// α = 0.75, |R^r_s| = 100.
type Config struct {
	Alpha           float64 // trade-off between transmission (α) and ops (1-α)
	NumRandomSplits int     // |R^r_s|
	Providers       int     // |D|, number of service providers
	Seed            int64
}

func (c Config) withDefaults() Config {
	if c.Alpha == 0 && c.NumRandomSplits == 0 {
		c.Alpha = 0.75
	}
	if c.NumRandomSplits == 0 {
		c.NumRandomSplits = 100
	}
	if c.Providers == 0 {
		c.Providers = 4
	}
	return c
}

// searcher carries the per-search state: the splittable layers' row
// scalars, the random split-decision fraction vectors (reused across
// candidate schemes, as the paper reuses R^r_s) and the memoised score of
// every layer-volume.
type searcher struct {
	layers      []layerRows
	gatherBytes float64 // output bytes of the last splittable layer
	cfg         Config
	fracs       [][]float64 // NumRandomSplits sorted fraction vectors in [0,1]

	// Normalisers: O and T of the single-volume scheme, so Cp's two terms
	// are both ~1 at the coarsest partition and α trades them off on equal
	// footing. (With T including the halo-duplicated per-part input bytes,
	// a boundary can *reduce* T — which is how the paper's α=1 run settles
	// on two volumes rather than one.)
	oneVolOps   float64
	oneVolBytes float64
	kappa       float64

	// memo[a*(len(layers)+1)+b] is volume [a,b)'s score once volume has
	// computed it.
	memo []volumeScore

	// parts and prevParts are volume's per-provider interval scratch,
	// filled by partIntervals for every fraction vector.
	parts, prevParts []interval
}

// volumeScore is one layer-volume's mean operations and inbound bytes.
type volumeScore struct {
	ops, trans float64
	scored     bool
}

// Search runs LC-PSS and returns the partition boundaries (ascending layer
// indices from 0 to the number of splittable layers).
func Search(m *cnn.Model, cfg Config) ([]int, error) {
	cfg = cfg.withDefaults()
	if cfg.Alpha < 0 || cfg.Alpha > 1 {
		return nil, fmt.Errorf("partition: alpha %g outside [0,1]", cfg.Alpha)
	}
	if cfg.Providers < 1 {
		return nil, fmt.Errorf("partition: need at least one provider")
	}
	n := m.NumSplittable()
	if n == 0 {
		return nil, fmt.Errorf("partition: model %q has no splittable layers", m.Name)
	}
	s := newSearcher(m, cfg)
	rng := rand.New(rand.NewSource(cfg.Seed))
	k := cfg.Providers - 1
	fracs := make([]float64, cfg.NumRandomSplits*k)
	s.fracs = make([][]float64, cfg.NumRandomSplits)
	for i := range s.fracs {
		f := fracs[i*k : (i+1)*k : (i+1)*k]
		for j := range f {
			f[j] = rng.Float64()
		}
		sort.Float64s(f)
		s.fracs[i] = f
	}
	s.oneVolOps, s.oneVolBytes = s.rawScore([]int{0, n})
	if s.oneVolOps <= 0 || s.oneVolBytes <= 0 {
		return nil, fmt.Errorf("partition: degenerate normaliser for %q", m.Name)
	}
	// rp, rStar and cand are the scheme, the scheme being grown and the
	// candidate scheme: at most n+1 boundaries each, in one backing array.
	buf := make([]int, 3*(n+1))
	rp, rStar, cand := buf[:0:n+1], buf[n+1:n+1:2*(n+1)], buf[2*(n+1):2*(n+1)]
	// Equalise the dynamic ranges of the two terms across the coarsest
	// (one volume) and finest (layer-by-layer) schemes, so α compares them
	// on equal footing for *this* model. The paper leaves its normalisation
	// unspecified; without this, models with violent halo growth (large
	// filters, many layers) or tiny activations would see one term drown
	// the other. κ rescales only T, so the α=0 and α=1 extremes keep their
	// argmin.
	for i := 0; i <= n; i++ {
		cand = append(cand, i)
	}
	lblOps, lblTrans := s.rawScore(cand)
	oRange := 1 - lblOps/s.oneVolOps
	tRange := lblTrans/s.oneVolBytes - 1
	s.kappa = 1
	if oRange > 0 && tRange > 0 {
		// The extra factor of 2 biases α=0.75 toward the empirically
		// optimal granularity on our substrate (see DESIGN.md calibration
		// note); it is the single global constant in the scorer.
		s.kappa = oRange / (2 * tRange)
	}

	// Algorithm 1: start with {0, n}; each loop tries to insert one optimal
	// location per existing segment, and stops when nothing new joins.
	rp = append(rp, 0, n)
	for {
		rStar = append(rStar[:0], rp...)
		for i := 0; i+1 < len(rp); i++ {
			bestC := s.score(rStar)
			bestJ := -1
			for j := rp[i] + 1; j < rp[i+1]; j++ {
				cand = insertSorted(cand, rStar, j)
				if c := s.score(cand); c < bestC {
					bestC = c
					bestJ = j
				}
			}
			if bestJ >= 0 {
				cand = insertSorted(cand, rStar, bestJ)
				rStar, cand = cand, rStar
			}
		}
		if len(rStar) == len(rp) {
			break
		}
		rp, rStar = rStar, rp
	}
	return rp, nil
}

// newSearcher returns a searcher over m's splittable layers with an empty
// memo and no fraction vectors.
func newSearcher(m *cnn.Model, cfg Config) *searcher {
	layers := m.SplittableLayers()
	n, p := len(layers), cfg.Providers
	parts := make([]interval, 2*p)
	s := &searcher{
		layers:      make([]layerRows, n),
		gatherBytes: layers[n-1].OutputBytes(),
		cfg:         cfg,
		memo:        make([]volumeScore, (n+1)*(n+1)),
		parts:       parts[:0:p],
		prevParts:   parts[p:p],
	}
	for i, l := range layers {
		s.layers[i] = rowsOf(l)
	}
	return s
}

// insertSorted writes b with v inserted in order (no duplicates) into dst's
// storage, which grows only when it is short, and returns it. dst must not
// share b's storage.
func insertSorted(dst, b []int, v int) []int {
	out := dst[:0]
	done := false
	for _, x := range b {
		if !done && v < x {
			out = append(out, v)
			done = true
		}
		if x == v {
			done = true
		}
		out = append(out, x)
	}
	if !done {
		out = append(out, v)
	}
	return out
}

// rawScore returns the mean total operations and transmitted bytes of a
// partition scheme (boundaries from 0) over the random split decisions.
func (s *searcher) rawScore(boundaries []int) (ops, trans float64) {
	for v := 0; v+1 < len(boundaries); v++ {
		o, t := s.volume(boundaries[v], boundaries[v+1])
		ops += o
		trans += t
	}
	// Result gather from the last volume.
	trans += s.gatherBytes
	return ops, trans
}

// score returns the mean C̄p of a partition scheme over the random split
// decisions (Eq. 4), with O and T normalised by their single-volume values
// and T additionally rescaled by the per-model range equaliser κ.
func (s *searcher) score(boundaries []int) float64 {
	ops, trans := s.rawScore(boundaries)
	o := ops / s.oneVolOps
	t := s.kappa * trans / s.oneVolBytes
	return float64(s.cfg.Alpha*t) + float64((1-s.cfg.Alpha)*o)
}

// Scoring uses *continuous* row accounting: split fractions are applied to
// each volume's last-layer height as real intervals and the VSL halo is
// propagated fractionally (rows [lo,hi] on a layer need input
// [lo·S−P, hi·S+(F−S)−P], clamped). This keeps the score meaningful even
// where integer heights degenerate (e.g. detector tails with H=1, where an
// integer random split would collapse to a single non-empty part and make
// the un-split scheme look free). The executed strategies are still exact
// integer splits — continuous math is a scoring device only.

// interval is a continuous row range [Lo, Hi] on some layer's height.
type interval struct{ Lo, Hi float64 }

func (iv interval) len() float64 {
	if iv.Hi <= iv.Lo {
		return 0
	}
	return iv.Hi - iv.Lo
}

func (iv interval) intersect(o interval) float64 {
	lo, hi := max(iv.Lo, o.Lo), min(iv.Hi, o.Hi)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// layerRows holds the scalars of one layer that the row accounting reads,
// converted to float64 once per search, so the scorers' inner loops read
// a few floats instead of passing an 88-byte cnn.Layer by value.
type layerRows struct {
	s, p, fs, hin float64 // stride, padding, F−S, input height
	opsRow        float64 // operations per output row (OpsRows(1))
	outH          float64 // output height
	inRowBytes    float64
}

func rowsOf(l cnn.Layer) layerRows {
	return layerRows{
		s: float64(l.S), p: float64(l.P), fs: float64(l.F - l.S), hin: float64(l.Hin),
		opsRow: l.OpsRows(1), outH: float64(l.OutHeight()), inRowBytes: l.InRowBytes(),
	}
}

// inputInterval propagates an output interval backwards through one layer.
// The clamps are branches, which keep volume's propagation chain short:
// lo <= 0 takes -0 to +0 and leaves NaN, exactly as max(lo, 0) does, and
// hi > l.hin is min(hi, l.hin) for a height that is neither NaN nor -0.
func inputInterval(l *layerRows, out interval) interval {
	if out.len() == 0 {
		return interval{}
	}
	lo := float64(out.Lo*l.s) - l.p
	hi := float64(out.Hi*l.s) + l.fs - l.p
	if lo <= 0 {
		lo = 0
	}
	if hi > l.hin {
		hi = l.hin
	}
	if hi < lo {
		hi = lo
	}
	return interval{lo, hi}
}

// partIntervals maps a fraction vector to provider intervals on height h,
// written into dst's storage, which grows only when it is short.
func partIntervals(dst []interval, frac []float64, h float64, providers int) []interval {
	parts := slices.Grow(dst[:0], providers)[:providers]
	prev := 0.0
	for i := 0; i < providers; i++ {
		hi := h
		if i < len(frac) {
			hi = frac[i] * h
		}
		if hi < prev {
			hi = prev
		}
		parts[i] = interval{prev, hi}
		prev = hi
	}
	return parts
}

// volume returns the mean total operations of volume [a,b) over the random
// split decisions, (fractional) halo recompute included, and the mean bytes
// the volume receives. The first volume (a == 0) receives what the requester
// scatters: every part's input rows, halo overlap sent once per receiving
// device, so long volumes pay duplicated input traffic. Any later volume
// receives the bytes crossing the boundary into it: each part pulls its
// input rows from the parts of the previous volume that own them (the
// previous volume's output is the full height of layer a-1, split by the
// same fraction vector). Each part's rows are propagated back through the
// volume once, for both sums.
func (s *searcher) volume(a, b int) (ops, trans float64) {
	memo := &s.memo[a*(len(s.layers)+1)+b]
	if memo.scored {
		return memo.ops, memo.trans
	}
	layers := s.layers[a:b]
	h := layers[len(layers)-1].outH
	rowBytes := layers[0].inRowBytes
	for _, frac := range s.fracs {
		s.parts = partIntervals(s.parts, frac, h, s.cfg.Providers)
		if a > 0 {
			s.prevParts = partIntervals(s.prevParts, frac, s.layers[a-1].outH, s.cfg.Providers)
		}
		for i, part := range s.parts {
			in := part
			for l := len(layers) - 1; l >= 0; l-- {
				ops += float64(layers[l].opsRow * in.len())
				in = inputInterval(&layers[l], in)
			}
			if a == 0 {
				trans += float64(in.len() * rowBytes)
				continue
			}
			if in.len() == 0 {
				continue
			}
			for j, own := range s.prevParts {
				if j != i {
					trans += float64(in.intersect(own) * rowBytes)
				}
			}
		}
	}
	r := float64(len(s.fracs))
	*memo = volumeScore{ops: ops / r, trans: trans / r, scored: true}
	return memo.ops, memo.trans
}
