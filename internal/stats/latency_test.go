package stats

import "testing"

// TestQuantileNearestRank pins the 1-based nearest-rank arithmetic the
// simulator's and the gateway's percentiles share.
func TestQuantileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		sorted []float64
		q      float64
		want   float64
	}{
		{ten, 0.50, 5}, {ten, 0.95, 10}, {ten, 0.05, 1}, {ten, 1.0, 10}, {ten, 0, 1},
		{nil, 0.95, 0},
		{[]float64{7}, 0.95, 7}, {[]float64{7}, 0.05, 7},
	} {
		if got := quantile(c.sorted, c.q); got != c.want {
			t.Errorf("quantile(%v, %g) = %g, want %g", c.sorted, c.q, got, c.want)
		}
	}
}

func TestLatencyMS(t *testing.T) {
	var scratch []float64
	for _, c := range []struct {
		name                string
		sec                 []float64
		mean, p50, p95, max float64
	}{
		{"empty", nil, 0, 0, 0, 0},
		{"singleton", []float64{0.007}, 7, 7, 7, 7},
		{"unsorted", []float64{0.010, 0.001, 0.004, 0.002, 0.003}, 4, 3, 10, 10},
	} {
		in := append([]float64(nil), c.sec...)
		mean, p50, p95, max := LatencyMS(in, &scratch)
		if mean != c.mean || p50 != c.p50 || p95 != c.p95 || max != c.max {
			t.Errorf("%s: LatencyMS = %g %g %g %g, want %g %g %g %g", c.name, mean, p50, p95, max, c.mean, c.p50, c.p95, c.max)
		}
		for i := range in {
			if in[i] != c.sec[i] {
				t.Errorf("%s: input reordered: %v", c.name, in)
				break
			}
		}
	}
	// The scratch buffer is kept: a second call of no greater size reuses it.
	if got := testing.AllocsPerRun(10, func() { LatencyMS([]float64{0.002, 0.001}, &scratch) }); got > 1 {
		t.Errorf("LatencyMS with a warm scratch buffer made %.0f allocations, want at most sort's 1", got)
	}
}
