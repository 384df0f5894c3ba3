package device

import (
	"fmt"
	"math/rand"
	"sort"

	"distredge/internal/cnn"
)

// This file implements the profiling pipeline of Section IV: "DistrEdge
// allows various forms to express the profiling results of a device. It can
// be regression models (e.g., linear regression, piece-wise linear
// regression, k-nearest-neighbor) or a measured data table."
//
// The Profiler plays the role of the TensorRT Profiler in the paper's
// testbed: it measures (with noise, averaged over repeats) the latency of
// each layer at every output height, producing per-layer curves from which
// any of the profile forms can be fit.

// Profiler samples a ground-truth LatencyModel the way the paper samples
// hardware: each (layer, height) point is measured Repeats times with
// multiplicative Gaussian noise of relative std Noise and averaged.
type Profiler struct {
	Repeats int     // measurements per point (paper: 100)
	Noise   float64 // relative measurement noise per sample
	Seed    int64
}

// Curve is the measured latency of one layer as a function of output rows:
// Lat[r-1] is the mean measured latency of computing r rows, r = 1..H.
type Curve struct {
	Layer cnn.Layer
	Lat   []float64
}

// Measure profiles every splittable layer of the model on the device,
// returning one curve per layer (granularity 1 in the height dimension, as
// in Section V-A).
func (pr Profiler) Measure(dev LatencyModel, model *cnn.Model) []Curve {
	rng := rand.New(rand.NewSource(pr.Seed))
	repeats := pr.Repeats
	if repeats < 1 {
		repeats = 1
	}
	layers := model.SplittableLayers()
	curves := make([]Curve, len(layers))
	for i, l := range layers {
		h := l.OutHeight()
		lat := make([]float64, h)
		for r := 1; r <= h; r++ {
			truth := dev.ComputeLatency(l, r)
			var sum float64
			for k := 0; k < repeats; k++ {
				sum += float64(truth * (1 + float64(pr.Noise*rng.NormFloat64())))
			}
			v := sum / float64(repeats)
			if v < 0 {
				v = 0
			}
			lat[r-1] = v
		}
		curves[i] = Curve{Layer: l, Lat: lat}
	}
	return curves
}

// layerKey identifies a layer configuration; two layers with identical
// configuration share profile entries (as on real hardware).
func layerKey(l cnn.Layer) string {
	return fmt.Sprintf("%d/%dx%dx%d-%d-f%ds%dp%d", int(l.Kind), l.Win, l.Hin, l.Cin, l.Cout, l.F, l.S, l.P)
}

// TableModel is the "measured data table" profile form: exact lookup of the
// measured curves, with linear interpolation unnecessary (granularity 1).
type TableModel struct {
	table    map[string][]float64
	fallback LatencyModel
}

// NewTableModel builds a table profile from measured curves. fallback (may
// be nil) is consulted for layers that were never profiled, e.g. FC layers.
func NewTableModel(curves []Curve, fallback LatencyModel) *TableModel {
	t := &TableModel{table: make(map[string][]float64), fallback: fallback}
	for _, c := range curves {
		t.table[layerKey(c.Layer)] = c.Lat
	}
	return t
}

// ComputeLatency implements LatencyModel by table lookup.
func (t *TableModel) ComputeLatency(l cnn.Layer, rows int) float64 {
	if rows <= 0 {
		return 0
	}
	lat, ok := t.table[layerKey(l)]
	if !ok || len(lat) == 0 {
		if t.fallback != nil {
			return t.fallback.ComputeLatency(l, rows)
		}
		return 0
	}
	if rows > len(lat) {
		rows = len(lat)
	}
	return lat[rows-1]
}

// LinearModel is the linear-regression profile form: a least-squares fit of
// latency against operation count across all measured points. This is also
// precisely the model the linear baselines assume, so it doubles as their
// device model.
type LinearModel struct {
	SecPerOp float64 // slope: seconds per operation
	Fixed    float64 // intercept: per-invocation seconds
}

// FitLinear fits latency = Fixed + SecPerOp * ops(rows) over all curves.
func FitLinear(curves []Curve) LinearModel {
	var n, sx, sy, sxx, sxy float64
	for _, c := range curves {
		for r := 1; r <= len(c.Lat); r++ {
			x := c.Layer.OpsRows(r)
			y := c.Lat[r-1]
			n++
			sx += x
			sy += y
			sxx += float64(x * x)
			sxy += float64(x * y)
		}
	}
	if n == 0 {
		return LinearModel{}
	}
	den := float64(n*sxx) - float64(sx*sx)
	if den == 0 {
		return LinearModel{SecPerOp: 0, Fixed: sy / n}
	}
	slope := (float64(n*sxy) - float64(sx*sy)) / den
	inter := (sy - float64(slope*sx)) / n
	if slope < 0 {
		slope = 0
	}
	if inter < 0 {
		inter = 0
	}
	return LinearModel{SecPerOp: slope, Fixed: inter}
}

// ComputeLatency implements LatencyModel with the linear fit.
func (m LinearModel) ComputeLatency(l cnn.Layer, rows int) float64 {
	if rows <= 0 {
		return 0
	}
	ops := l.OpsRows(rows)
	if l.Kind == cnn.FC {
		ops = l.Ops()
	}
	return m.Fixed + float64(m.SecPerOp*ops)
}

// PiecewiseLinearModel is the piece-wise linear regression profile form:
// per layer, latency is interpolated between knots sampled every KnotStep
// rows of the measured curve.
type PiecewiseLinearModel struct {
	knots    map[string][]knot
	fallback LatencyModel
}

type knot struct {
	rows int
	lat  float64
}

// FitPiecewiseLinear builds a piecewise-linear profile with knots every
// step rows (and always at 1 and H).
func FitPiecewiseLinear(curves []Curve, step int, fallback LatencyModel) *PiecewiseLinearModel {
	if step < 1 {
		step = 1
	}
	m := &PiecewiseLinearModel{knots: make(map[string][]knot), fallback: fallback}
	for _, c := range curves {
		h := len(c.Lat)
		if h == 0 {
			continue
		}
		var ks []knot
		for r := 1; r <= h; r += step {
			ks = append(ks, knot{r, c.Lat[r-1]})
		}
		if ks[len(ks)-1].rows != h {
			ks = append(ks, knot{h, c.Lat[h-1]})
		}
		m.knots[layerKey(c.Layer)] = ks
	}
	return m
}

// ComputeLatency implements LatencyModel by interpolating between knots.
func (m *PiecewiseLinearModel) ComputeLatency(l cnn.Layer, rows int) float64 {
	if rows <= 0 {
		return 0
	}
	ks, ok := m.knots[layerKey(l)]
	if !ok || len(ks) == 0 {
		if m.fallback != nil {
			return m.fallback.ComputeLatency(l, rows)
		}
		return 0
	}
	if rows <= ks[0].rows {
		return ks[0].lat
	}
	last := ks[len(ks)-1]
	if rows >= last.rows {
		return last.lat
	}
	i := sort.Search(len(ks), func(i int) bool { return ks[i].rows >= rows })
	a, b := ks[i-1], ks[i]
	frac := float64(rows-a.rows) / float64(b.rows-a.rows)
	return a.lat + float64(frac*(b.lat-a.lat))
}

// KNNModel is the k-nearest-neighbour profile form: per layer, the latency
// of a query row count is the average of the K nearest sampled row counts.
type KNNModel struct {
	K        int
	samples  map[string][]knot
	fallback LatencyModel
}

// FitKNN builds a k-NN profile from points sampled every step rows.
func FitKNN(curves []Curve, k, step int, fallback LatencyModel) *KNNModel {
	if step < 1 {
		step = 1
	}
	if k < 1 {
		k = 1
	}
	m := &KNNModel{K: k, samples: make(map[string][]knot), fallback: fallback}
	for _, c := range curves {
		var ks []knot
		for r := 1; r <= len(c.Lat); r += step {
			ks = append(ks, knot{r, c.Lat[r-1]})
		}
		m.samples[layerKey(c.Layer)] = ks
	}
	return m
}

// ComputeLatency implements LatencyModel by averaging the K nearest samples.
func (m *KNNModel) ComputeLatency(l cnn.Layer, rows int) float64 {
	if rows <= 0 {
		return 0
	}
	ks, ok := m.samples[layerKey(l)]
	if !ok || len(ks) == 0 {
		if m.fallback != nil {
			return m.fallback.ComputeLatency(l, rows)
		}
		return 0
	}
	type cand struct {
		d   int
		lat float64
	}
	cands := make([]cand, len(ks))
	for i, kn := range ks {
		d := kn.rows - rows
		if d < 0 {
			d = -d
		}
		cands[i] = cand{d, kn.lat}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].d < cands[j].d })
	n := m.K
	if n > len(cands) {
		n = len(cands)
	}
	var sum float64
	for i := 0; i < n; i++ {
		sum += cands[i].lat
	}
	return sum / float64(n)
}
