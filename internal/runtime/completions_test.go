package runtime

import (
	"math/rand"
	goruntime "runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The reference is the requester's registration state the completion table
// replaces: per-image pending sets striped over id-hashed shards, and the gc
// cursor on its own mutex.

const numRegShards = 16

type regShard struct {
	mu      sync.Mutex
	pending map[uint32]map[chunkKey]bool
	arrived map[uint32]chan struct{}
}

func (s *regShard) register(img uint32, pending map[chunkKey]bool, done chan struct{}) {
	s.mu.Lock()
	s.pending[img] = pending
	s.arrived[img] = done
	s.mu.Unlock()
}

func (s *regShard) chunkArrived(img uint32, key chunkKey) {
	s.mu.Lock()
	if m, ok := s.pending[img]; ok {
		delete(m, key)
		if len(m) == 0 {
			delete(s.pending, img)
			if done, ok := s.arrived[img]; ok {
				close(done)
				delete(s.arrived, img)
			}
		}
	}
	s.mu.Unlock()
}

func (s *regShard) drop(img uint32) {
	s.mu.Lock()
	delete(s.pending, img)
	delete(s.arrived, img)
	s.mu.Unlock()
}

type regTable struct {
	shards [numRegShards]regShard
}

func newRegTable() *regTable {
	t := &regTable{}
	for i := range t.shards {
		t.shards[i].pending = make(map[uint32]map[chunkKey]bool)
		t.shards[i].arrived = make(map[uint32]chan struct{})
	}
	return t
}

func (t *regTable) shard(img uint32) *regShard { return &t.shards[img&(numRegShards-1)] }

func (t *regTable) drainAll() {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		clear(s.pending)
		clear(s.arrived)
		s.mu.Unlock()
	}
}

// registered counts the images with an open completion channel, requiring
// the pending sets to agree.
func (t *regTable) registered(tb testing.TB) int {
	n := 0
	for i := range t.shards {
		if len(t.shards[i].pending) != len(t.shards[i].arrived) {
			tb.Fatalf("reference shard %d: %d pending sets, %d channels", i, len(t.shards[i].pending), len(t.shards[i].arrived))
		}
		n += len(t.shards[i].arrived)
	}
	return n
}

type watermark struct {
	mu        sync.Mutex
	completed map[uint32]bool
	low       uint32
}

func (w *watermark) complete(img uint32) uint32 {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.completed[img] = true
	for w.completed[w.low] {
		delete(w.completed, w.low)
		w.low++
	}
	return w.low
}

func (w *watermark) drainThrough(next uint32) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.low <= next {
		delete(w.completed, w.low)
		w.low++
	}
}

func isClosed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// TestCompletionsMatchReference drives the completion table and the
// reference with the same seeded random sequences of registrations, result
// arrivals, completions, failed-scatter drops and recovery drains, over
// random Await sets that change at each drain (a re-plan), and requires after
// every operation a waiter's token received exactly where the reference
// closed a done channel, in the same order, the same gc cursor and the same
// number of armed images. Waiters are released as attempts release them —
// after completing, after a drop, after a drain — and reused by later
// images, and every idle one must hold no token. Duplicate chunks, chunks
// no one awaits, chunks for unknown or dropped images, an Await listing one
// need twice and drains with images still armed must all occur.
func TestCompletionsMatchReference(t *testing.T) {
	var dups, unawaited, unknown, dropped, twice, armedDrains int
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := make([]Need, 2+rng.Intn(6))
		for i := range pool {
			lo := rng.Intn(8)
			pool[i] = Need{Volume: rng.Intn(3), Lo: lo, Hi: lo + 1 + rng.Intn(4)}
		}
		var await []Need
		var asm *assembly
		replan := func() {
			await = []Need{pool[rng.Intn(len(pool))]}
			for range rng.Intn(4) {
				await = append(await, pool[rng.Intn(len(pool))])
			}
			if rng.Intn(5) == 0 {
				await = append(await, await[0])
			}
			seen := map[Need]bool{}
			for _, n := range await {
				if seen[n] {
					twice++
					break
				}
				seen[n] = true
			}
			a := newAssembly(ProviderPlan{Steps: []Step{{Needs: await}}})
			asm = &a
		}
		replan()

		ref, wm := newRegTable(), &watermark{completed: map[uint32]bool{}, low: 1}
		got := newCompletions()
		var next uint32
		refDone := map[uint32]chan struct{}{}
		holding := map[uint32]*waiter{} // images whose waiter is not yet released
		woken := map[uint32]bool{}      // images whose token was received
		var refOrder, gotOrder []uint32
		armed := map[uint32]bool{}    // registered, neither closed nor dropped nor drained
		finished := map[uint32]bool{} // closed, not yet completed
		dead := map[uint32]bool{}     // dropped or drained while armed
		arrivedKeys := map[uint32]map[chunkKey]bool{}
		// closings appends the images whose done channel closed since the
		// last call, in id order (an operation closes at most one).
		closings := func(order []uint32) []uint32 {
			seen := map[uint32]bool{}
			for _, img := range order {
				seen[img] = true
			}
			for img := uint32(1); img <= next; img++ {
				if !seen[img] && isClosed(refDone[img]) {
					order = append(order, img)
				}
			}
			return order
		}
		// tokens appends the held, unwoken images whose token arrived since
		// the last call, in id order.
		tokens := func(order []uint32) []uint32 {
			for img := uint32(1); img <= next; img++ {
				if w, ok := holding[img]; ok && !woken[img] && isClosed(w.done) {
					woken[img] = true
					order = append(order, img)
				}
			}
			return order
		}
		release := func(img uint32) {
			got.release(img, holding[img])
			delete(holding, img)
		}
		pick := func(m map[uint32]bool) (uint32, bool) {
			if len(m) == 0 {
				return 0, false
			}
			ids := make([]uint32, 0, len(m))
			for img := range m {
				ids = append(ids, img)
			}
			slices.Sort(ids) // map order is random; the seed picks by rank
			return ids[rng.Intn(len(ids))], true
		}

		for op := range 300 {
			switch r := rng.Intn(20); {
			case r < 4: // register
				next++
				pending := map[chunkKey]bool{}
				for _, n := range await {
					pending[chunkKey{n.Volume, n.Lo, n.Hi}] = true
				}
				refDone[next] = make(chan struct{})
				ref.shard(next).register(next, pending, refDone[next])
				holding[next] = got.register(next, asm)
				armed[next] = true
				arrivedKeys[next] = map[chunkKey]bool{}
			case r < 15: // a result chunk arrives
				img := uint32(1 + rng.Intn(int(next)+2))
				n := await[rng.Intn(len(await))]
				if rng.Intn(8) == 0 {
					n = pool[rng.Intn(len(pool))]
				}
				if rng.Intn(10) == 0 {
					n = Need{Volume: 7, Lo: rng.Intn(4), Hi: 9}
				}
				key := chunkKey{n.Volume, n.Lo, n.Hi}
				switch _, awaited := asm.ids[key]; {
				case img > next:
					unknown++
				case dead[img]:
					dropped++
				case !armed[img]: // a finished image's straggler
				case !awaited:
					unawaited++
				case arrivedKeys[img][key]:
					dups++
				default:
					arrivedKeys[img][key] = true
				}
				ref.shard(img).chunkArrived(img, key)
				got.arrived(Chunk{Image: img, Volume: int32(key.volume), Lo: int32(key.lo), Hi: int32(key.hi)})
			case r < 17: // a waiter whose image finished completes it
				img, ok := pick(finished)
				if !ok {
					continue
				}
				delete(finished, img)
				if a, b := wm.complete(img), got.complete(img); a != b {
					t.Fatalf("seed %d op %d: completing %d moved the cursor to %d, the reference to %d", seed, op, img, b, a)
				}
				release(img)
			case r < 19: // a failed scatter drops an armed image
				img, ok := pick(armed)
				if !ok {
					continue
				}
				delete(armed, img)
				dead[img] = true
				ref.shard(img).drop(img)
				if a, b := wm.complete(img), got.complete(img); a != b {
					t.Fatalf("seed %d op %d: dropping %d moved the cursor to %d, the reference to %d", seed, op, img, b, a)
				}
				release(img)
			default: // recovery drains, then re-plans
				if len(armed) > 0 {
					armedDrains++
				}
				ref.drainAll()
				wm.drainThrough(next)
				got.drainThrough(next)
				for img := range armed {
					dead[img] = true
				}
				for img := range holding {
					release(img)
				}
				clear(armed)
				clear(finished)
				replan()
			}

			refOrder, gotOrder = closings(refOrder), tokens(gotOrder)
			if !slices.Equal(refOrder, gotOrder) {
				t.Fatalf("seed %d op %d: tokens received in order %v, the reference closed %v", seed, op, gotOrder, refOrder)
			}
			for _, w := range got.idle {
				if len(w.done) != 0 {
					t.Fatalf("seed %d op %d: an idle waiter holds a token", seed, op)
				}
			}
			for img := range armed {
				if isClosed(refDone[img]) {
					delete(armed, img)
					finished[img] = true
				}
			}
			bk := bookkeeping{registered: len(got.images), gcLow: got.low}
			if want := ref.registered(t); bk.registered != want || bk.gcLow != wm.low {
				t.Fatalf("seed %d op %d: %d armed, cursor %d; the reference %d armed, cursor %d",
					seed, op, bk.registered, bk.gcLow, want, wm.low)
			}
		}
	}
	t.Logf("%d duplicate chunks, %d unawaited chunks, %d chunks for unknown images, %d for dropped ones, %d awaits listing a need twice, %d drains with armed images",
		dups, unawaited, unknown, dropped, twice, armedDrains)
	if dups == 0 || unawaited == 0 || unknown == 0 || dropped == 0 || twice == 0 || armedDrains == 0 {
		t.Fatalf("cases not covered: %d duplicate chunks, %d unawaited chunks, %d chunks for unknown images, %d for dropped ones, %d awaits listing a need twice, %d drains with armed images",
			dups, unawaited, unknown, dropped, twice, armedDrains)
	}
}

// TestCompletionsWaiterReuseStress races waiters that leave early against
// the chunks still arriving for them. Eight attempts at a time register
// images, three arrival goroutines deliver each image's result chunks in
// random order, and each attempt leaves on its token, on a tiny random
// timeout or on a failure broadcast, whichever comes first, then releases
// its waiter — which the same attempt's next image takes straight back.
// A token may only wake an attempt whose chunks have all been delivered: a
// token put after the table unlocks, or one left in a released waiter,
// wakes a later image early. Every exit must occur, and at the end no image
// may be armed and no idle waiter may hold a token.
func TestCompletionsWaiterReuseStress(t *testing.T) {
	const attempts, images, arrivers = 8, 3000, 3
	needs := []Need{{Volume: 5, Lo: 0, Hi: 4}, {Volume: 5, Lo: 4, Hi: 8}, {Volume: 5, Lo: 8, Hi: 12}, {Volume: 6, Lo: 0, Hi: 1}}
	asm := newAssembly(ProviderPlan{Steps: []Step{{Needs: needs}}})
	tbl := newCompletions()
	delivered := make([]atomic.Int32, attempts*images+1)
	var nextImg atomic.Uint32
	var woke, timedOut, failed, early atomic.Int64

	var failedCh atomic.Pointer[chan struct{}]
	fresh := make(chan struct{})
	failedCh.Store(&fresh)
	stopFailing := make(chan struct{})
	failing := make(chan struct{})
	go func() { // the failure broadcast: every waiter armed before it leaves
		defer close(failing)
		for {
			select {
			case <-stopFailing:
				return
			case <-time.After(300 * time.Microsecond):
			}
			next := make(chan struct{})
			close(*failedCh.Swap(&next))
		}
	}()

	jobs := make(chan Chunk, attempts*len(needs))
	var arrivals sync.WaitGroup
	for a := range arrivers {
		arrivals.Add(1)
		go func() {
			defer arrivals.Done()
			rng := rand.New(rand.NewSource(int64(a)))
			for ch := range jobs {
				if rng.Intn(4) == 0 {
					goruntime.Gosched()
				}
				delivered[ch.Image].Add(1)
				tbl.arrived(ch)
			}
		}()
	}

	var waiters sync.WaitGroup
	for a := range attempts {
		waiters.Add(1)
		go func() {
			defer waiters.Done()
			rng := rand.New(rand.NewSource(int64(100 + a)))
			for range images {
				img := nextImg.Add(1)
				w := tbl.register(img, &asm)
				fail := *failedCh.Load()
				for _, k := range rng.Perm(len(needs)) {
					n := needs[k]
					jobs <- Chunk{Image: img, Volume: int32(n.Volume), Lo: int32(n.Lo), Hi: int32(n.Hi)}
				}
				w.timer.Reset(time.Duration(rng.Intn(40)) * time.Microsecond)
				select {
				case <-w.done:
					if got := delivered[img].Load(); got != int32(len(needs)) {
						if early.Add(1) == 1 {
							t.Errorf("image %d woke with %d of its %d chunks delivered", img, got, len(needs))
						}
					}
					woke.Add(1)
					tbl.complete(img)
				case <-w.timer.C:
					timedOut.Add(1)
				case <-fail:
					failed.Add(1)
				}
				w.timer.Stop()
				tbl.release(img, w)
			}
		}()
	}
	settled := make(chan struct{})
	go func() { waiters.Wait(); close(settled) }()
	select {
	case <-settled:
	case <-time.After(30 * time.Second):
		t.Fatalf("attempts still waiting after 30s, %d woke early: a token put into a waiter that still held one blocks arrived under the table lock", early.Load())
	}
	close(jobs)
	arrivals.Wait()
	close(stopFailing)
	<-failing

	t.Logf("%d woke, %d timed out, %d left on a failure, %d woke early", woke.Load(), timedOut.Load(), failed.Load(), early.Load())
	if woke.Load() == 0 || timedOut.Load() == 0 || failed.Load() == 0 {
		t.Errorf("exits not covered: %d woke, %d timed out, %d left on a failure", woke.Load(), timedOut.Load(), failed.Load())
	}
	if n := len(tbl.images); n != 0 {
		t.Errorf("%d images still armed after every waiter released", n)
	}
	if len(tbl.idle) > attempts {
		t.Errorf("%d idle waiters for %d concurrent attempts", len(tbl.idle), attempts)
	}
	for _, w := range tbl.idle {
		if len(w.done) != 0 {
			t.Error("an idle waiter holds a token")
		}
	}
}
