// Package plot renders small terminal visualisations — sparklines, bar
// charts and multi-series line plots — used by cmd/distbench to show trace
// shapes (Fig. 4/12), the latency staircase (Fig. 14) and IPS comparisons
// without leaving the terminal.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// sparkTicks are the eighth-block characters used by Sparkline.
var sparkTicks = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values as a single-line unicode sparkline. Empty input
// yields an empty string; a flat series renders mid-height.
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	var b strings.Builder
	for _, v := range values {
		idx := len(sparkTicks) / 2
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparkTicks)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sparkTicks) {
			idx = len(sparkTicks) - 1
		}
		b.WriteRune(sparkTicks[idx])
	}
	return b.String()
}

// Downsample reduces values to at most n points by bucket-averaging,
// preserving the curve's shape for terminal-width rendering.
func Downsample(values []float64, n int) []float64 {
	if n <= 0 || len(values) <= n {
		return append([]float64(nil), values...)
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		lo := i * len(values) / n
		hi := (i + 1) * len(values) / n
		if hi <= lo {
			hi = lo + 1
		}
		var s float64
		for _, v := range values[lo:hi] {
			s += v
		}
		out[i] = s / float64(hi-lo)
	}
	return out
}

// Series is one named line of a Lines plot.
type Series struct {
	Name   string
	Values []float64
}

// Lines renders multiple series as stacked sparklines with a shared scale
// annotation, one per row.
func Lines(series []Series, width int) string {
	if len(series) == 0 {
		return ""
	}
	if width < 1 {
		width = 60
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	maxL := 0
	for _, s := range series {
		for _, v := range s.Values {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if len(s.Name) > maxL {
			maxL = len(s.Name)
		}
	}
	var sb strings.Builder
	for _, s := range series {
		ds := Downsample(s.Values, width)
		// Render against the global scale so series are comparable.
		var b strings.Builder
		for _, v := range ds {
			idx := len(sparkTicks) / 2
			if hi > lo {
				idx = int((v - lo) / (hi - lo) * float64(len(sparkTicks)-1))
			}
			if idx < 0 {
				idx = 0
			}
			if idx >= len(sparkTicks) {
				idx = len(sparkTicks) - 1
			}
			b.WriteRune(sparkTicks[idx])
		}
		fmt.Fprintf(&sb, "%-*s %s\n", maxL, s.Name, b.String())
	}
	fmt.Fprintf(&sb, "%-*s (scale %.1f .. %.1f)\n", maxL, "", lo, hi)
	return sb.String()
}
