package strategy

import (
	"fmt"

	"distredge/internal/cnn"
)

// This file holds the pure strategy surgery used by churn recovery: the
// Project/Lift pair that moves a strategy between the full fleet and the
// survivor fleet without consulting device profiles. The re-planners
// themselves (profile-guided and search-based) live in internal/splitter.

// CountAlive returns the number of true entries in the mask.
func CountAlive(alive []bool) int {
	n := 0
	for _, a := range alive {
		if a {
			n++
		}
	}
	return n
}

// Project maps a strategy for the full provider set down to one for just
// the alive providers (in index order): survivor i's share of each volume
// is kept proportionally, dead providers' rows are absorbed. The result has
// CountAlive(alive) providers and is the natural warm-start for re-planning
// over the survivor fleet.
func Project(m *cnn.Model, s *Strategy, alive []bool) (*Strategy, error) {
	n := s.NumProviders()
	if len(alive) != n {
		return nil, fmt.Errorf("strategy: project mask has %d entries for %d providers", len(alive), n)
	}
	k := CountAlive(alive)
	if k == 0 {
		return nil, fmt.Errorf("strategy: project with no alive providers")
	}
	out := &Strategy{Boundaries: append([]int(nil), s.Boundaries...)}
	out.Splits = make([][]int, len(s.Splits))
	for v := range s.Splits {
		h := VolumeHeight(m, s.Boundaries, v)
		weights := make([]float64, 0, k)
		var total float64
		for i := 0; i < n; i++ {
			if !alive[i] {
				continue
			}
			w := float64(CutRange(s.Splits[v], h, i).Len())
			weights = append(weights, w)
			total += w
		}
		if total <= 0 {
			for i := range weights {
				weights[i] = 1
			}
		}
		out.Splits[v] = ProportionalCuts(h, weights)
	}
	return out, nil
}

// Lift is the inverse of Project: it expands a strategy planned for the
// alive providers back to the full provider set, assigning survivor ranges
// in index order and zero-width (idle) ranges to dead providers.
func Lift(m *cnn.Model, s *Strategy, alive []bool) (*Strategy, error) {
	k := s.NumProviders()
	if CountAlive(alive) != k {
		return nil, fmt.Errorf("strategy: lift mask has %d alive entries for %d providers",
			CountAlive(alive), k)
	}
	n := len(alive)
	out := &Strategy{Boundaries: append([]int(nil), s.Boundaries...)}
	out.Splits = make([][]int, len(s.Splits))
	for v, cuts := range s.Splits {
		h := VolumeHeight(m, s.Boundaries, v)
		full := make([]int, n-1)
		end := 0 // upper bound of the previous provider's lifted range
		si := 0  // survivor ordinal in the compact strategy
		for i := 0; i < n; i++ {
			if alive[i] {
				if si < len(cuts) {
					end = cuts[si]
				} else {
					end = h // last survivor runs to the height sentinel
				}
				si++
			}
			// Dead providers inherit the previous end: a zero-width range.
			if i < n-1 {
				full[i] = end
			}
		}
		out.Splits[v] = full
	}
	return out, nil
}
