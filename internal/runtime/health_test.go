package runtime

import (
	"testing"
	"time"

	"distredge/internal/device"
	"distredge/internal/splitter"
	"distredge/internal/transport"
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

// TestHealthIgnoresStaleEpochBeats: a beat stamped with an epoch other than
// the armed one — a torn-down deployment's provider still beating — does not
// refresh its provider, while a current one does.
func TestHealthIgnoresStaleEpochBeats(t *testing.T) {
	t0 := time.Now().Add(-time.Second)
	m := monitorAt(t0, 2)
	m.arm(1, []bool{true, true})
	m.setBeat(0, t0)
	m.setBeat(1, t0)
	m.beat(0, 0)
	m.beat(1, 1)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.last[0].Equal(t0) {
		t.Errorf("a beat from stale epoch 0 refreshed provider 0 in epoch 1")
	}
	if !m.last[1].After(t0) {
		t.Errorf("a beat from the current epoch did not refresh provider 1")
	}
}

// TestHeartbeatsKeepAnIdleFleetAlive: beats cross the tcp wire as bare
// binary chunk frames and the monitor reads provider and epoch out of Image
// and Lo as ever, so a fleet idle for many detection thresholds stays
// convicted of nothing, every provider's last beat is recent, and serving
// afterwards needs no recovery.
func TestHeartbeatsKeepAnIdleFleetAlive(t *testing.T) {
	env := testEnv(device.Xavier, device.Nano, device.TX2)
	const interval = 10 * time.Millisecond
	cl, err := Deploy(env, equalStrategy(env, []int{0, 18}), Options{
		TimeScale: 0.002, BytesScale: 0.001, Replan: splitter.BalancedReplan,
		HeartbeatInterval: interval, Transport: transport.NewTCP(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	time.Sleep(20 * interval) // three 65 ms thresholds
	if err := cl.Err(); err != nil {
		t.Fatalf("idle fleet failed: %v", err)
	}
	cl.health.mu.Lock()
	now := time.Now()
	for i, lb := range cl.health.last {
		if silent := now.Sub(lb); silent > cl.health.threshold {
			t.Errorf("provider %d last heard %s ago, past the %s threshold", i, silent, cl.health.threshold)
		}
	}
	cl.health.mu.Unlock()
	if _, err := stream(cl, 8, 4); err != nil {
		t.Fatal(err)
	}
	if rec, _, _, q := cl.Recovery(); rec != 0 || len(q) != 0 {
		t.Errorf("heartbeating fleet recovered %d times, quarantined %v", rec, q)
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
