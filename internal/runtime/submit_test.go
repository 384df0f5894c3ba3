package runtime

import (
	"strings"
	"sync"
	"testing"

	"distredge/internal/device"
)

// TestScatterFailureDropsRegistration is the regression test for the
// admission leak: when the input scatter fails, the just-registered image
// can never complete, so it must be disarmed in the completion table and
// the gc cursor advanced past its id. Before the fix the dead id
// wedged gcLow forever, so provider assembly state above it was never
// collected again.
func TestScatterFailureDropsRegistration(t *testing.T) {
	env := testEnv(device.Xavier, device.Nano)
	s := equalStrategy(env, []int{0, 10, 18})
	cl, err := Deploy(env, s, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Kill a scatter destination before anything is admitted, so the very
	// first image's input scatter fails.
	dest := cl.dep.Load().plan.ScatterDest[0]
	if err := cl.KillProvider(dest); err != nil {
		t.Fatal(err)
	}

	if err := cl.Submit(); err == nil {
		t.Fatal("Submit through a dead scatter destination must fail")
	}
	// The failed admission must leave no bookkeeping behind: the watermark
	// has passed the dead id and nothing is pending or armed.
	bk := cl.bookkeeping()
	if bk.nextImg == 0 {
		t.Fatal("no image was ever registered — the scatter did not run")
	}
	if bk.registered != 0 || bk.completed != 0 || bk.gcLow != bk.nextImg+1 {
		t.Errorf("failed admission leaked bookkeeping: registered=%d completed=%d gcLow=%d nextImg=%d (want gcLow=nextImg+1 and all maps empty)",
			bk.registered, bk.completed, bk.gcLow, bk.nextImg)
	}
	// Failure is sticky on a non-recover cluster.
	if err := cl.Submit(); err == nil || !strings.Contains(err.Error(), "already failed") {
		t.Errorf("second Submit err = %v, want sticky already-failed", err)
	}
}

// TestSubmitConcurrent smoke-tests the shared-cluster admission path the
// gateway multiplexes tenants over: many goroutines Submit through one
// deployment at once, every request completes, and the requester
// bookkeeping drains to a clean watermark.
func TestSubmitConcurrent(t *testing.T) {
	env := testEnv(device.Xavier, device.Nano)
	s := equalStrategy(env, []int{0, 10, 18})
	cl, err := Deploy(env, s, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const n = 8
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = cl.Submit()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("submit %d: %v", i, err)
		}
	}
	bk := cl.bookkeeping()
	if bk.nextImg != n {
		t.Errorf("allocated %d ids for %d submits", bk.nextImg, n)
	}
	if bk.registered != 0 || bk.completed != 0 || bk.gcLow != bk.nextImg+1 {
		t.Errorf("bookkeeping leaked after concurrent submits: registered=%d completed=%d gcLow=%d nextImg=%d",
			bk.registered, bk.completed, bk.gcLow, bk.nextImg)
	}
}
