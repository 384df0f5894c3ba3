package runtime

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
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
// every operation the same done channels closed, in the same order, the same
// gc cursor and the same number of armed images. Duplicate chunks, chunks no
// one awaits, chunks for unknown or dropped images, an Await listing one
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
		refDone, gotDone := map[uint32]chan struct{}{}, map[uint32]chan struct{}{}
		var refOrder, gotOrder []uint32
		armed := map[uint32]bool{}    // registered, neither closed nor dropped nor drained
		finished := map[uint32]bool{} // closed, not yet completed
		dead := map[uint32]bool{}     // dropped or drained while armed
		arrivedKeys := map[uint32]map[chunkKey]bool{}
		// closings appends the images whose done channel closed since the
		// last call, in id order (an operation closes at most one).
		closings := func(done map[uint32]chan struct{}, order []uint32) []uint32 {
			seen := map[uint32]bool{}
			for _, img := range order {
				seen[img] = true
			}
			for img := uint32(1); img <= next; img++ {
				if !seen[img] && isClosed(done[img]) {
					order = append(order, img)
				}
			}
			return order
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
				gotDone[next] = got.register(next, asm)
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
				clear(armed)
				clear(finished)
				replan()
			}

			refOrder, gotOrder = closings(refDone, refOrder), closings(gotDone, gotOrder)
			if !slices.Equal(refOrder, gotOrder) {
				t.Fatalf("seed %d op %d: done channels closed in order %v, the reference %v", seed, op, gotOrder, refOrder)
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
