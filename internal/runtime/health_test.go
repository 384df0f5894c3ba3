package runtime

import (
	"testing"
	"time"
)

// monitorAt builds a detector for n providers, all watched and last heard
// at t0, without starting its ticker: the tests drive verdict with explicit
// times instead of sleeping.
func monitorAt(t0 time.Time, n int) *healthMonitor {
	const interval = 50 * time.Millisecond
	m := &healthMonitor{
		interval:  interval,
		threshold: 6*interval + interval/2,
		last:      make([]time.Time, n),
		dead:      make([]bool, n),
		lastTick:  t0,
	}
	for i := range m.last {
		m.last[i] = t0
	}
	return m
}

// setBeat stands in for beat() at an explicit time.
func (m *healthMonitor) setBeat(idx int, at time.Time) {
	m.mu.Lock()
	m.last[idx] = at
	m.mu.Unlock()
}

// TestHealthObserverPauseIsNotProviderSilence: beats arrive on time until t,
// then the observer itself is stopped for 400 ms — longer than the 325 ms
// threshold — and its next tick fires before any of the beats queued during
// the stop has been read. Nobody died. (Before the pause credit this one
// tick declared every provider dead and failed the cluster for good.)
func TestHealthObserverPauseIsNotProviderSilence(t *testing.T) {
	t0 := time.Now()
	m := monitorAt(t0, 4)
	now := t0
	for k := 0; k < 5; k++ {
		now = now.Add(m.interval)
		for i := range m.last {
			m.setBeat(i, now)
		}
		if _, dead, _ := m.verdict(now); len(dead) != 0 {
			t.Fatalf("tick %d: healthy providers declared dead: %v", k, dead)
		}
	}
	now = now.Add(400 * time.Millisecond)
	if _, dead, since := m.verdict(now); len(dead) != 0 {
		t.Fatalf("a 400ms observer pause killed providers %v (silent %v)", dead, since)
	}
	// The queued beats are read after the tick; regular ticking resumes and
	// stays quiet.
	for k := 0; k < 8; k++ {
		for i := range m.last {
			m.setBeat(i, now)
		}
		now = now.Add(m.interval)
		if _, dead, _ := m.verdict(now); len(dead) != 0 {
			t.Fatalf("tick %d after the pause: providers declared dead: %v", k, dead)
		}
	}
}

// TestHealthSilentProviderDiesAfterThresholdOfTickedTime: with the observer
// ticking regularly, a provider that stops beating is declared dead once —
// and only once — its silence passes the threshold, pause or no pause in
// between: the pause is credited, so detection still takes `threshold` of
// time the monitor was actually watching.
func TestHealthSilentProviderDiesAfterThresholdOfTickedTime(t *testing.T) {
	for _, pause := range []time.Duration{0, 400 * time.Millisecond} {
		t0 := time.Now()
		m := monitorAt(t0, 3)
		const silent = 1
		now, watched := t0, time.Duration(0)
		var diedAfter time.Duration
		for k := 0; k < 20 && diedAfter == 0; k++ {
			step := m.interval
			if k == 2 {
				step += pause // one late tick early in the silence
			}
			now = now.Add(step)
			watched += m.interval
			for i := range m.last {
				if i != silent {
					m.setBeat(i, now)
				}
			}
			_, dead, _ := m.verdict(now)
			for _, i := range dead {
				if i != silent {
					t.Fatalf("pause %s: beating provider %d declared dead", pause, i)
				}
				diedAfter = watched
			}
		}
		// First tick past the 325 ms threshold on a 50 ms ticker: 350 ms.
		if want := 7 * m.interval; diedAfter != want {
			t.Errorf("pause %s: silent provider declared dead after %s of ticked time, want %s", pause, diedAfter, want)
		}
		if _, dead, _ := m.verdict(now.Add(m.interval)); len(dead) != 0 {
			t.Errorf("pause %s: provider reported dead twice: %v", pause, dead)
		}
	}
}

// TestHealthPauseCreditNeverPostdatesNow: a provider armed (or heard from)
// during the pause was silent for less than all of it; crediting the whole
// pause must not push its last beat into the future, or its real silence
// afterwards would be detected late by that much.
func TestHealthPauseCreditNeverPostdatesNow(t *testing.T) {
	t0 := time.Now()
	m := monitorAt(t0, 1)
	now := t0.Add(m.interval + 400*time.Millisecond)
	m.setBeat(0, now.Add(-10*time.Millisecond))
	m.verdict(now)
	m.mu.Lock()
	last := m.last[0]
	m.mu.Unlock()
	if last.After(now) {
		t.Fatalf("pause credit moved the last beat %s past now", last.Sub(now))
	}
}
