package runtime

import (
	"math"
	"sync/atomic"
)

// ProviderStats aggregates one provider's activity over a run: how long its
// compute goroutine was busy and how many chunks moved through it. The
// requester collects these for utilisation reporting (idle providers —
// e.g. a Pi3 the planner excluded — show zero compute).
type ProviderStats struct {
	Index          int
	ComputeSec     float64
	StepsExecuted  int
	ChunksReceived int
	ChunksSent     int

	// Invocations counts compute-thread invocations; with step batching on,
	// one invocation can cover several images' instances of a step, so
	// Invocations < StepsExecuted means batches actually formed. MaxBatch is
	// the largest coalesced batch observed.
	Invocations int
	MaxBatch    int
}

// statsRecorder is embedded in Provider: one atomic per counter, so the
// compute thread, the receive threads and every per-destination sender
// record without a lock. ComputeSec and MaxBatch have a single writer, the
// compute thread, so a load-modify-store is exact; ComputeSec is kept as
// float64 bits.
type statsRecorder struct {
	computeBits atomic.Uint64
	steps       atomic.Int64
	received    atomic.Int64
	sent        atomic.Int64
	invocations atomic.Int64
	maxBatch    atomic.Int64
}

// addComputeBatch records one compute invocation covering n step instances
// (n > 1 only when the compute loop coalesced queued same-step images). Only
// the compute thread calls it.
func (s *statsRecorder) addComputeBatch(sec float64, n int) {
	s.computeBits.Store(math.Float64bits(math.Float64frombits(s.computeBits.Load()) + sec))
	s.steps.Add(int64(n))
	s.invocations.Add(1)
	if int64(n) > s.maxBatch.Load() {
		s.maxBatch.Store(int64(n))
	}
}

func (s *statsRecorder) addReceived() { s.received.Add(1) }

func (s *statsRecorder) addSent() { s.sent.Add(1) }

// snapshot reads the counters one by one: each is exact, and the set can
// lag a concurrent writer by at most the chunks in flight during the read.
func (s *statsRecorder) snapshot(index int) ProviderStats {
	return ProviderStats{
		Index:          index,
		ComputeSec:     math.Float64frombits(s.computeBits.Load()),
		StepsExecuted:  int(s.steps.Load()),
		ChunksReceived: int(s.received.Load()),
		ChunksSent:     int(s.sent.Load()),
		Invocations:    int(s.invocations.Load()),
		MaxBatch:       int(s.maxBatch.Load()),
	}
}

// Stats returns a snapshot of every provider's counters. Quarantined
// providers report zeroes; after a recovery the survivors' counters
// restart with the new deployment.
func (c *Cluster) Stats() []ProviderStats {
	provs := c.dep.Load().providers
	out := make([]ProviderStats, len(provs))
	for i, p := range provs {
		if p == nil {
			out[i] = ProviderStats{Index: i}
			continue
		}
		out[i] = p.rec.snapshot(p.plan.Index)
	}
	return out
}
