package gateway

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestHeapMatchesScan drives the heap scheduler and the former O(n) scan
// through the same seeded traffic — enqueues, admissions, completions over
// tenants with mixed weights and windows — and insists every pick is
// identical. The scan is the reference the WFQ/FIFO equivalence proofs
// were written against (bit-identical to sim.Serve), so heap ==
// scan transitively keeps the sim differential intact.
func TestHeapMatchesScan(t *testing.T) {
	for _, policy := range []string{PolicyFIFO, PolicyWFQ} {
		t.Run(policy, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			const nTenants = 13
			weights := []float64{0.5, 1, 1, 2, 3}
			tenants := make([]TenantConfig, nTenants)
			for i := range tenants {
				tenants[i] = TenantConfig{
					Name:   fmt.Sprintf("t%d", i),
					Weight: weights[rng.Intn(len(weights))],
					Window: 1 + rng.Intn(3),
				}
			}
			g, err := newGateway(nopBackend{}, Config{Window: 6, Policy: policy}, tenants)
			if err != nil {
				t.Fatal(err)
			}
			var inflight []int // tenant of each simulated in-flight admission
			for step := 0; step < 20000; step++ {
				switch op := rng.Intn(4); {
				case op < 2: // enqueue
					tn := rng.Intn(nTenants)
					g.mu.Lock()
					r := &request{tenant: tn, seq: g.nextSeq}
					g.nextSeq++
					g.queues[tn].push(r)
					g.heapSyncLocked(tn)
					g.mu.Unlock()
				case op == 2 && len(inflight) > 0: // complete a random in-flight
					k := rng.Intn(len(inflight))
					tn := inflight[k]
					inflight = append(inflight[:k], inflight[k+1:]...)
					g.mu.Lock()
					g.inflight--
					g.tinfl[tn]--
					g.heapSyncLocked(tn)
					g.mu.Unlock()
				default: // admit (the pick under test)
					g.mu.Lock()
					want := g.pickScanLocked()
					got := -1
					if len(g.heap) > 0 {
						got = g.heap[0]
					}
					if got != want {
						g.mu.Unlock()
						t.Fatalf("step %d: heap picked %d, scan picked %d", step, got, want)
					}
					if got >= 0 && g.inflight < g.cfg.Window {
						g.queues[got].pop()
						g.inflight++
						g.tinfl[got]++
						g.vserved[got] += 1 / g.tenants[got].Weight
						g.heapSyncLocked(got)
						inflight = append(inflight, got)
					}
					g.mu.Unlock()
				}
			}
			// Final invariant: the heap holds exactly the admissible tenants.
			g.mu.Lock()
			for tn := range tenants {
				in := g.heapIdx[tn] >= 0
				want := g.admissibleLocked(tn)
				if in != want {
					t.Errorf("tenant %d: in heap %v, admissible %v", tn, in, want)
				}
				if in && g.heap[g.heapIdx[tn]] != tn {
					t.Errorf("tenant %d: heapIdx points at %d", tn, g.heap[g.heapIdx[tn]])
				}
			}
			g.mu.Unlock()
		})
	}
}

// TestSummaryReadOnlyIdempotent checks the Summary bugfix: repeated calls
// return identical statistics, never reorder the recorded latency history
// (the sort happens in a scratch copy), and stay safe under a concurrent
// Enqueue storm.
func TestSummaryReadOnlyIdempotent(t *testing.T) {
	g, err := New(nopBackend{}, Config{Window: 4}, []TenantConfig{{Name: "a"}, {Name: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	const n = 40
	var chans []<-chan Result
	for i := 0; i < n; i++ {
		ch, err := g.Enqueue([]string{"a", "b"}[i%2])
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	for _, ch := range chans {
		if r := <-ch; r.Err != nil {
			t.Fatalf("serve: %v", r.Err)
		}
	}

	g.mu.Lock()
	history := append([]float64(nil), g.served[0]...)
	g.mu.Unlock()

	s1, s2 := g.Summary(), g.Summary()
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("Summary not idempotent:\n%+v\n%+v", s1, s2)
	}
	if s1[0].Completed != n/2 || s1[1].Completed != n/2 {
		t.Errorf("completed counts wrong: %+v", s1)
	}

	g.mu.Lock()
	after := append([]float64(nil), g.served[0]...)
	g.mu.Unlock()
	if !reflect.DeepEqual(history, after) {
		t.Errorf("Summary mutated the latency history:\nbefore %v\nafter  %v", history, after)
	}

	// Concurrent Enqueue storm vs repeated Summary: counters may move
	// between calls but nothing races or goes backwards.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ch, err := g.Enqueue("a")
				if err != nil {
					return
				}
				<-ch
			}
		}()
	}
	lastEnq := 0
	for i := 0; i < 50; i++ {
		s := g.Summary()
		if s[0].Enqueued < lastEnq {
			t.Errorf("Enqueued went backwards: %d -> %d", lastEnq, s[0].Enqueued)
		}
		lastEnq = s[0].Enqueued
	}
	close(stop)
	wg.Wait()
}

// TestExpiredPrefixNotified checks the ring-based expiry sweep still
// notifies queued requests that aged out before admission, and that the
// tenant's survivors are untouched.
func TestExpiredPrefixNotified(t *testing.T) {
	be := newBlockingBackend()
	g, err := New(be, Config{Window: 1}, []TenantConfig{
		{Name: "slow"},
		{Name: "dl", Deadline: 30 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	// Occupy the single global slot so "dl"'s requests sit queued.
	slowCh, err := g.Enqueue("slow")
	if err != nil {
		t.Fatal(err)
	}
	hold := <-be.calls

	dlCh, err := g.Enqueue("dl")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	// A fresh enqueue wakes the scheduler; the aged head must expire
	// without reaching the backend.
	dlCh2, err := g.Enqueue("dl")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-dlCh:
		if r.Err != ErrDeadlineExceeded {
			t.Fatalf("expired request err = %v", r.Err)
		}
		if r.LatencyMS != 0 {
			t.Fatalf("expired request reported backend latency %v", r.LatencyMS)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("expired request never notified")
	}

	// Release the backend: the survivor runs, the slow request completes.
	hold <- nil
	if r := <-slowCh; r.Err != nil {
		t.Fatalf("slow: %v", r.Err)
	}
	hold2 := <-be.calls
	hold2 <- nil
	if r := <-dlCh2; r.Err != nil && r.Err != ErrDeadlineExceeded {
		t.Fatalf("survivor: %v", r.Err)
	}
	s := g.Summary()
	if s[1].Expired != 1 {
		t.Errorf("dl expired = %d, want 1", s[1].Expired)
	}
}

// BenchmarkGatewayPick measures one admission decision plus its
// bookkeeping at 1024 backlogged WFQ tenants: the heap path against the
// reference O(n) scan. The acceptance bar for the heap refactor is >= 5x
// over the scan at this tenant count (BENCH_baseline.json records both).
func BenchmarkGatewayPick(b *testing.B) {
	const n = 1024
	setup := func(b *testing.B) *Gateway {
		tenants := make([]TenantConfig, n)
		for i := range tenants {
			tenants[i] = TenantConfig{
				Name:   fmt.Sprintf("t%d", i),
				Weight: 1 + float64(i%7),
				Window: 1 << 30,
			}
		}
		g, err := newGateway(nopBackend{}, Config{Window: 1 << 30, Policy: PolicyWFQ}, tenants)
		if err != nil {
			b.Fatal(err)
		}
		g.mu.Lock()
		for i := 0; i < n; i++ {
			for j := 0; j < 2; j++ {
				g.queues[i].push(&request{tenant: i, seq: g.nextSeq})
				g.nextSeq++
			}
			g.heapSyncLocked(i)
		}
		g.mu.Unlock()
		return g
	}
	b.Run("heap", func(b *testing.B) {
		g := setup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.mu.Lock()
			t := g.heap[0]
			r := g.queues[t].pop()
			g.vserved[t] += 1 / g.tenants[t].Weight
			g.queues[t].push(r) // refill so the backlog never drains
			g.heapSyncLocked(t)
			g.mu.Unlock()
		}
	})
	b.Run("scan", func(b *testing.B) {
		g := setup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.mu.Lock()
			t := g.pickScanLocked()
			r := g.queues[t].pop()
			g.vserved[t] += 1 / g.tenants[t].Weight
			g.queues[t].push(r)
			g.mu.Unlock()
		}
	})
}
