package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves the budget's Parallel setting to a worker count:
// 0 or 1 mean serial, negative means one worker per CPU.
func (b Budget) Workers() int {
	w := b.Parallel
	if w < 0 {
		w = runtime.NumCPU()
	}
	if w < 1 {
		w = 1
	}
	return w
}

// runIndexed executes fn(0..n-1) on up to `workers` goroutines and returns
// the first error by task index. Each task writes its result into its own
// slot (closured by index), so the assembled output is identical for any
// worker count — determinism comes from per-task isolation plus indexed
// collection, not from execution order.
func runIndexed(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				// Check for a failure before claiming, never after: a
				// claimed task always runs, so every task below a failed
				// one has run and the lowest-index error is reported.
				if failed.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errs[i] = err
					failed.Store(true) // stop claiming; the grid is discarded anyway
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
