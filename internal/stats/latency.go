// Package stats holds the latency summary sim.ServeResult.Assemble computes
// for a predicted run (sim.Serve) and a measured one (runtime Cluster.Serve)
// alike, so a per-tenant p95 predicted offline and one measured live are the
// same statistic.
package stats

import "sort"

// LatencyMS returns the mean, p50, p95 (nearest-rank) and max in
// milliseconds of latencies given in seconds, all zero for an empty
// distribution. sec is left untouched: it is copied into *scratch, which
// grows as needed and is kept for the next call, and sorted there.
func LatencyMS(sec []float64, scratch *[]float64) (mean, p50, p95, max float64) {
	if len(sec) == 0 {
		return 0, 0, 0, 0
	}
	sorted := append((*scratch)[:0], sec...)
	*scratch = sorted
	sort.Float64s(sorted)
	var sum float64
	for _, l := range sorted {
		sum += l
	}
	return sum / float64(len(sorted)) * 1e3, quantile(sorted, 0.50) * 1e3,
		quantile(sorted, 0.95) * 1e3, sorted[len(sorted)-1] * 1e3
}

// quantile returns the q-quantile of an ascending slice by nearest rank
// (1-based rank round(q*n), clamped to [1, n]), 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(q*float64(len(sorted))) + 0.5)
	if i < 1 {
		i = 1
	}
	if i > len(sorted) {
		i = len(sorted)
	}
	return sorted[i-1]
}
