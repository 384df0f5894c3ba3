package main

import (
	"math"
	"sort"
	"sync/atomic"
)

// percentile is the 1-based nearest-rank percentile over an ascending
// slice — the rule sim.PipelineResult and gateway.Summary use, so the
// benchmark's p95 and the program's own p95 are the same statistic.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)) + 0.5)
	if i < 1 {
		i = 1
	}
	if i > len(sorted) {
		i = len(sorted)
	}
	return sorted[i-1]
}

// median returns the middle value (mean of the middle two for even counts)
// without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailSamples is how many samples must lie beyond a percentile before it
// is reported per window: p95 needs 200 samples in every window.
const tailSamples = 10

// Stat is one reported metric: a value over windows — the median for
// counts, the better quartile for timings — with the windows' range and the
// number of raw samples behind it.
type Stat struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Windows int     `json:"windows"`
	Samples int     `json:"samples"`
	// PerWindow keeps the window values behind Value, so a comparison can
	// show their quartiles.
	PerWindow []float64 `json:"per_window,omitempty"`
}

// overWindows folds one value per window into a Stat.
func overWindows(unit string, perWindow []float64, samples int) Stat {
	st := Stat{Unit: unit, Windows: len(perWindow), Samples: samples, Value: median(perWindow)}
	st.PerWindow = append(st.PerWindow, perWindow...)
	if len(perWindow) > 0 {
		st.Min, st.Max = perWindow[0], perWindow[0]
		for _, v := range perWindow[1:] {
			st.Min = math.Min(st.Min, v)
			st.Max = math.Max(st.Max, v)
		}
	}
	return st
}

// betterQuartile folds one value per window into a Stat whose value is
// the quartile on the metric's good side — the first where lower is better,
// the third where higher is — not the median. It is for timings: on a
// shared host whatever disturbs a window — a neighbour on the core's other
// thread, a stolen vCPU, caches gone cold while the process slept — only
// ever slows it, so the good side of the distribution is the program's own
// speed and the bad side is the host's. The quartile, not the best window,
// so that no single lucky window decides. Of five windows it is the mean of
// the best two.
func betterQuartile(unit string, perWindow []float64, samples int, better string) Stat {
	st := overWindows(unit, perWindow, samples)
	q1, _, q3 := quartiles(perWindow)
	st.Value = q1
	if better == "higher" {
		st.Value = q3
	}
	return st
}

// exact wraps a count or ratio that is not a per-window timing.
func exact(unit string, v float64, samples int) Stat {
	return Stat{Value: v, Unit: unit, Min: v, Max: v, Windows: 1, Samples: samples}
}

// windowPercentile reports percentile q of a latency population split into
// windows: the lower quartile of the per-window percentiles when every
// window has at least tailSamples samples beyond q, otherwise the
// percentile of the pooled population (a short or sparse window cannot
// support its own tail). Each window slice is sorted in place.
func windowPercentile(unit string, windows [][]float64, q float64) Stat {
	total, supported := 0, len(windows) > 0
	for _, w := range windows {
		sort.Float64s(w)
		total += len(w)
		if float64(len(w))*(1-q) < tailSamples {
			supported = false
		}
	}
	if supported {
		per := make([]float64, len(windows))
		for i, w := range windows {
			per[i] = percentile(w, q)
		}
		return betterQuartile(unit, per, total, "lower")
	}
	return pooledPercentile(unit, windows, q)
}

// pooledPercentile reports percentile q of all windows taken together.
func pooledPercentile(unit string, windows [][]float64, q float64) Stat {
	var pooled []float64
	for _, w := range windows {
		pooled = append(pooled, w...)
	}
	sort.Float64s(pooled)
	return exact(unit, percentile(pooled, q), len(pooled))
}

// histogram is a lock-free log-bucket histogram for durations the traced
// run records on the message path (hundreds of thousands per second), where
// keeping every sample would cost more than the send being timed. Sixteen
// sub-buckets per octave bound the quantile error to ~2 %.
type histogram struct {
	buckets [histBuckets]atomic.Uint64
}

const (
	histSub     = 16
	histBuckets = 40 * histSub // 1 ns .. 2^40 ns (~18 min)
)

func histIndex(ns int64) int {
	if ns < 1 {
		return 0
	}
	i := int(math.Log2(float64(ns)) * histSub)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

func (h *histogram) add(ns int64) { h.buckets[histIndex(ns)].Add(1) }

// snapshot copies the bucket counts; subtracting two snapshots gives the
// distribution of one window.
func (h *histogram) snapshot() []uint64 {
	out := make([]uint64, histBuckets)
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// histQuantile returns quantile q (nearest rank) of the counts in
// after-before, as the geometric midpoint of the bucket it falls in, in ns.
func histQuantile(before, after []uint64, q float64) (ns float64, samples int) {
	var total uint64
	for i := range after {
		total += after[i] - before[i]
	}
	if total == 0 {
		return 0, 0
	}
	rank := uint64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i := range after {
		seen += after[i] - before[i]
		if seen >= rank {
			return math.Exp2((float64(i) + 0.5) / histSub), int(total)
		}
	}
	return 0, int(total)
}

// quartiles returns the first, second and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so a spread
// computed here is the spread the acceptance procedure computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
