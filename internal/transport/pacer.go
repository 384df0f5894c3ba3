package transport

import "time"

// Pacer emulates one serial resource — a provider's compute thread, one
// directed link — on its ideal schedule. Emulated work costs a sleep, and a
// sleep wakes late (0.3–1 ms on a busy VM, against sub-millisecond steps at
// small time scales). Sleeping each piece of work for its own duration,
// measured from whenever the previous sleep happened to wake, adds every
// overshoot to the critical path. A Pacer instead keeps the ideal time the
// resource becomes free, starts each piece of work at the later of that and
// the work's own ideal ready time, and sleeps to the absolute end — so a
// late wake shortens the next sleep instead of delaying it, here and (via
// Message.Lag) on the next resource down the pipeline.
//
// A Pacer is not safe for concurrent use: the resource it models does one
// thing at a time, and the caller already serialises on it.
type Pacer struct {
	busyUntil time.Time // ideal end of the last work charged
}

// Charge occupies the resource for cost, starting at the later of ready and
// the ideal end of the work charged before, and blocks until that absolute
// end. It returns the ideal end and how late the caller woke past it (>= 0):
// the schedule debt to hand on as Message.Lag. It never returns before
// max(ready, previous end) + cost.
func (p *Pacer) Charge(ready time.Time, cost time.Duration) (end time.Time, late time.Duration) {
	start := ready
	if p.busyUntil.After(start) {
		start = p.busyUntil
	}
	end = start.Add(max(cost, 0))
	p.busyUntil = end
	return end, sleepUntil(end)
}

// sleepUntil blocks until the absolute deadline (not at all if it has
// passed) and returns how far past it the caller is running. It is the only
// place the emulator sleeps; distlint's baresleep analyzer keeps it that way.
func sleepUntil(deadline time.Time) time.Duration {
	if d := time.Until(deadline); d > 0 {
		time.Sleep(d)
	}
	return max(time.Since(deadline), 0)
}
