package gateway

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestSummaryReadOnlyIdempotent checks that repeated Summary calls return
// identical statistics and stay safe under a concurrent Enqueue storm.
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

	s1, s2 := g.Summary(), g.Summary()
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("Summary not idempotent:\n%+v\n%+v", s1, s2)
	}
	if s1[0].Completed != n/2 || s1[1].Completed != n/2 {
		t.Errorf("completed counts wrong: %+v", s1)
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
