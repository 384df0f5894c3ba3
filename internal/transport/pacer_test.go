package transport

import (
	"slices"
	"testing"
	"time"
)

// Timing bounds shared by the pacing tests. timerTick is the coarsest
// overshoot a sleep shows on the hosts this runs on (Go parks an idle
// thread in a millisecond-granular poll, so a 100µs sleep returns after
// ~1.1 ms on a quiet VM and within ~60µs on a desktop kernel).
const timerTick = 1200 * time.Microsecond

// medianOf repeats a timing measurement n times and returns the median: a
// stall of the host lands in a round or two and only ever adds time, and
// these tests bound what the mechanism does, not what the host adds.
func medianOf(n int, measure func(round int) time.Duration) time.Duration {
	took := make([]time.Duration, n)
	for i := range took {
		took[i] = measure(i)
	}
	slices.Sort(took)
	return took[n/2]
}

// TestPacerNeverEarly drives one resource through work that is sometimes
// queued behind it and sometimes arrives after an idle gap: every piece
// must end exactly cost after the later of its ready time and the previous
// ideal end, Charge must not return before that end, and the reported
// lateness is the distance between the two.
func TestPacerNeverEarly(t *testing.T) {
	var p Pacer
	t0 := time.Now()
	prevEnd := time.Time{}
	steps := []struct {
		readyOff time.Duration // ready time relative to t0
		cost     time.Duration
	}{
		{0, 300 * time.Microsecond},
		{0, 200 * time.Microsecond},                    // queued behind the first
		{100 * time.Microsecond, 0},                    // free work still keeps its place in line
		{5 * time.Millisecond, 400 * time.Microsecond}, // arrives after an idle gap
		{5 * time.Millisecond, 100 * time.Microsecond}, // queued again
		{-time.Millisecond, 250 * time.Microsecond},    // back-dated before the previous end
		{20 * time.Millisecond, -time.Second},          // a negative cost is no cost
		{20 * time.Millisecond, 150 * time.Microsecond},
	}
	for i, st := range steps {
		ready := t0.Add(st.readyOff)
		start := ready
		if prevEnd.After(start) {
			start = prevEnd
		}
		want := start
		if st.cost > 0 {
			want = start.Add(st.cost)
		}
		end, late := p.Charge(ready, st.cost)
		now := time.Now()
		if !end.Equal(want) {
			t.Fatalf("step %d: ideal end %s after t0, want %s", i, end.Sub(t0), want.Sub(t0))
		}
		if now.Before(end) {
			t.Fatalf("step %d: returned %s before its ideal end", i, end.Sub(now))
		}
		if late < 0 || late > now.Sub(end) {
			t.Fatalf("step %d: lateness %s outside [0, %s]", i, late, now.Sub(end))
		}
		prevEnd = end
	}
}

// TestPacerRepaysOvershoot queues a run of sub-tick work on one resource.
// Slept one by one each piece would take a whole timer tick (20 x ~1.1 ms
// where the tick is coarse); paced on the ideal schedule the run takes its
// ideal 6 ms plus at most the last wake's overshoot.
func TestPacerRepaysOvershoot(t *testing.T) {
	const pieces, cost = 20, 300 * time.Microsecond
	const ideal = pieces * cost
	took := medianOf(5, func(int) time.Duration {
		var p Pacer
		t0 := time.Now()
		var end time.Time
		for i := 0; i < pieces; i++ {
			end, _ = p.Charge(t0, cost)
		}
		took := time.Since(t0)
		if got := end.Sub(t0); got != ideal {
			t.Fatalf("ideal end %s after the start, want %s", got, ideal)
		}
		if took < ideal {
			t.Fatalf("%d x %s of work finished in %s", pieces, cost, took)
		}
		return took
	})
	if limit := ideal + timerTick + 300*time.Microsecond; took > limit {
		t.Errorf("queued work took %s (median of 5), want <= %s (ideal %s + one tick + slack): overshoot is accumulating", took, limit, ideal)
	}
}
