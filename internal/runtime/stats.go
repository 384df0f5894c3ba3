package runtime

import "sync"

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

// numStatStripes stripes a provider's counters across independent mutexes
// so the compute thread, the receive threads and every per-destination
// sender record without contending: compute and receive own fixed stripes,
// sends stripe by destination. Must be a power of two.
const numStatStripes = 8

const (
	computeStripe = 0 // only the compute thread writes here
	recvStripe    = 1 // only the receive threads write here
)

// statStripe is one stripe's partial counters.
type statStripe struct {
	mu    sync.Mutex
	stats ProviderStats // guarded by mu; partial counts, summed by snapshot
}

// statsRecorder is embedded in Provider; all methods are safe for
// concurrent use by the worker goroutines, and the striping keeps the
// per-chunk counter updates off one shared lock.
type statsRecorder struct {
	stripes [numStatStripes]statStripe
}

// addComputeBatch records one compute invocation covering n step instances
// (n > 1 only when the compute loop coalesced queued same-step images).
func (s *statsRecorder) addComputeBatch(sec float64, n int) {
	st := &s.stripes[computeStripe]
	st.mu.Lock()
	st.stats.ComputeSec += sec
	st.stats.StepsExecuted += n
	st.stats.Invocations++
	if n > st.stats.MaxBatch {
		st.stats.MaxBatch = n
	}
	st.mu.Unlock()
}

func (s *statsRecorder) addReceived() {
	st := &s.stripes[recvStripe]
	st.mu.Lock()
	st.stats.ChunksReceived++
	st.mu.Unlock()
}

// addSent stripes by destination: each destSender goroutine lands on its
// own stripe (modulo collisions past numStatStripes destinations).
func (s *statsRecorder) addSent(dest int) {
	st := &s.stripes[uint(dest+1)&(numStatStripes-1)]
	st.mu.Lock()
	st.stats.ChunksSent++
	st.mu.Unlock()
}

// snapshot sums the stripes into one consistent-enough view: each stripe
// is read under its own lock, so per-stripe counts are exact and the total
// can lag a concurrent writer by at most the chunks in flight during the
// read — the same guarantee the single-mutex recorder gave a caller
// reading mid-run.
func (s *statsRecorder) snapshot(index int) ProviderStats {
	out := ProviderStats{Index: index}
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		out.ComputeSec += st.stats.ComputeSec
		out.StepsExecuted += st.stats.StepsExecuted
		out.ChunksReceived += st.stats.ChunksReceived
		out.ChunksSent += st.stats.ChunksSent
		out.Invocations += st.stats.Invocations
		if st.stats.MaxBatch > out.MaxBatch {
			out.MaxBatch = st.stats.MaxBatch
		}
		st.mu.Unlock()
	}
	return out
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
