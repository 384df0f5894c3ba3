package runtime

import (
	"fmt"
	"sync"
	"time"
)

// healthMonitor is the requester-side failure detector: it tracks the last
// beat seen per provider and declares a provider dead once no beat has
// arrived for HeartbeatMisses intervals (plus half an interval of grace).
// Epochs fence recoveries: beats and verdicts from a torn-down deployment
// are ignored.
//
// Silence is measured in time the monitor itself observed. When its own
// tick arrives more than one interval late, the monitor was not running — a
// stolen vCPU, a stopped process, a long GC — and neither was the goroutine
// that reads beats off the wire, so the beats of that stretch are queued
// unread, not missing. The pause is credited to every watched provider
// before judging (local-pause detection, as in Cassandra's failure
// detector); without it one host hiccup longer than the threshold declares
// the whole fleet dead at once. A provider that is really silent is still
// declared dead after `threshold` of ticked time.
type healthMonitor struct {
	c         *Cluster
	interval  time.Duration
	threshold time.Duration

	mu       sync.Mutex
	epoch    int         // guarded by mu
	last     []time.Time // guarded by mu; zero = unwatched
	dead     []bool      // guarded by mu
	lastTick time.Time   // guarded by mu; when the previous verdict ran

	stop     chan struct{}
	stopOnce sync.Once
}

func newHealthMonitor(c *Cluster, n int, interval time.Duration, misses int) *healthMonitor {
	m := &healthMonitor{
		c:         c,
		interval:  interval,
		threshold: time.Duration(misses)*interval + interval/2,
		last:      make([]time.Time, n),
		dead:      make([]bool, n),
		lastTick:  time.Now(),
		stop:      make(chan struct{}),
	}
	go m.loop()
	return m
}

// arm starts a new deployment epoch: watched providers get a fresh grace
// window, everything else is ignored until the next arm.
func (m *healthMonitor) arm(epoch int, watch []bool) {
	now := time.Now()
	m.mu.Lock()
	m.epoch = epoch
	for i := range m.last {
		m.dead[i] = false
		if i < len(watch) && watch[i] {
			m.last[i] = now
		} else {
			m.last[i] = time.Time{}
		}
	}
	m.mu.Unlock()
}

// beat records a liveness beat from provider idx stamped with the epoch it
// was deployed in.
func (m *healthMonitor) beat(idx, epoch int) {
	m.mu.Lock()
	if epoch == m.epoch && idx >= 0 && idx < len(m.last) && !m.last[idx].IsZero() {
		m.last[idx] = time.Now()
	}
	m.mu.Unlock()
}

// deadSet returns the providers the monitor has declared dead in the
// current epoch.
func (m *healthMonitor) deadSet() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []int
	for i, d := range m.dead {
		if d {
			out = append(out, i)
		}
	}
	return out
}

func (m *healthMonitor) loop() {
	t := time.NewTicker(m.interval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
		}
		epoch, report, since := m.verdict(time.Now())
		for k, i := range report {
			m.c.failEpoch(epoch, i, fmt.Errorf(
				"runtime: provider %d lost: no heartbeat for %s (threshold %s)",
				i, since[k].Round(time.Millisecond), m.threshold))
		}
	}
}

// verdict is one tick of the detector at time now: it credits an observer
// pause (see the type comment) and returns the providers whose silence now
// exceeds the threshold, marking them dead, with how long each was silent.
func (m *healthMonitor) verdict(now time.Time) (epoch int, report []int, since []time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	pause := now.Sub(m.lastTick) - m.interval
	m.lastTick = now
	for i, lb := range m.last {
		if lb.IsZero() || m.dead[i] {
			continue
		}
		if pause > m.interval {
			// Capped at now: a provider armed during the pause was not
			// silent for all of it.
			if lb = lb.Add(pause); lb.After(now) {
				lb = now
			}
			m.last[i] = lb
		}
		if d := now.Sub(lb); d > m.threshold {
			m.dead[i] = true
			report = append(report, i)
			since = append(since, d)
		}
	}
	return m.epoch, report, since
}

func (m *healthMonitor) close() {
	m.stopOnce.Do(func() { close(m.stop) })
}
