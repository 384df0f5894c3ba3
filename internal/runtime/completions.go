package runtime

import (
	"sync"
	"time"
)

// completions is the requester's one completion table: which images are
// still awaiting result chunks, and the gc cursor over the ones that are
// done. It makes the decision a provider makes for a step — "have all the
// chunks this needs arrived?" — with the same dense index (newAssembly over
// the deployment's Await set, see deployment.await), so both ends of the
// wire complete by one rule.
type completions struct {
	mu       sync.Mutex
	images   map[uint32]*awaiting // guarded by mu; armed images
	spare    []*awaiting          // guarded by mu; recycled entries
	idle     []*waiter            // guarded by mu; released waiters, token drained
	finished map[uint32]bool      // guarded by mu; completed ids above low
	low      uint32               // guarded by mu; provider state below this is collectable
}

// awaiting is one armed image: which of its deployment's awaited chunks
// have arrived, how many distinct ones are still missing, and the waiter
// woken when none are.
type awaiting struct {
	asm  *assembly
	have []bool // per await need id
	left int32
	w    *waiter
}

// waiter is what one attempt waits on, reused image after image: a 1-slot
// token arrived puts when the image's last awaited chunk lands, and the
// per-image timeout timer. An attempt takes one in register and hands it
// back in release, so waiting allocates nothing.
type waiter struct {
	done  chan struct{}
	timer *time.Timer // stopped whenever the waiter is idle
}

func newCompletions() *completions {
	return &completions{images: make(map[uint32]*awaiting), finished: make(map[uint32]bool), low: 1}
}

// register arms img against the await index asm and returns the waiter
// whose token arrives once every chunk asm awaits has. The caller must
// release it, whatever the image's fate.
func (t *completions) register(img uint32, asm *assembly) *waiter {
	t.mu.Lock()
	defer t.mu.Unlock()
	var w *waiter
	if n := len(t.idle); n > 0 {
		w, t.idle = t.idle[n-1], t.idle[:n-1]
	} else {
		w = &waiter{done: make(chan struct{}, 1), timer: time.NewTimer(time.Hour)}
		w.timer.Stop()
	}
	var e *awaiting
	if n := len(t.spare); n > 0 {
		e, t.spare = t.spare[n-1], t.spare[:n-1]
	} else {
		e = &awaiting{}
	}
	if cap(e.have) < len(asm.needers) {
		e.have = make([]bool, len(asm.needers))
	}
	e.asm, e.have, e.left, e.w = asm, e.have[:len(asm.needers)], asm.pending[0], w
	t.images[img] = e
	return w
}

// arrived records one result chunk. Chunks for images that are not armed
// (completed, dropped, drained, or from a torn-down deployment), chunks no
// one awaits and duplicates are ignored; the last missing chunk puts the
// token of the image's waiter. It puts it under the lock, where release
// drains: a token put after unlocking could land in a waiter already
// released and handed to the next image, which would then wake early.
func (t *completions) arrived(ch Chunk) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.images[ch.Image]; ok {
		id, awaited := e.asm.ids[chunkKey{int(ch.Volume), int(ch.Lo), int(ch.Hi)}]
		if awaited && !e.have[id] {
			e.have[id] = true
			if e.left--; e.left == 0 {
				e.w.done <- struct{}{} // never blocks: one token per registration, drained on release
				t.forgetLocked(ch.Image, e)
			}
		}
	}
}

// release hands back img's waiter on every exit from its attempt. An image
// still armed — its waiter left on a failure or a timeout — is disarmed
// first, so no later chunk can put a token, and a token put but never
// received is drained; both under the lock arrived puts tokens under, so
// the next image's waiter holds no stale wake-up.
func (t *completions) release(img uint32, w *waiter) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.images[img]; ok {
		t.forgetLocked(img, e)
	}
	select {
	case <-w.done:
	default:
	}
	t.idle = append(t.idle, w)
}

// forgetLocked disarms img and keeps its entry for reuse.
func (t *completions) forgetLocked(img uint32, e *awaiting) {
	delete(t.images, img)
	clear(e.have)
	e.asm, e.w = nil, nil
	t.spare = append(t.spare, e)
}

// complete records img as finished — delivered, or dead because its
// scatter failed (release disarms it) — and returns the new gc cursor: the
// lowest image id that has not yet finished. The cursor only advances past
// contiguously finished ids, so an early finisher never exposes a
// straggler's provider state to gc.
func (t *completions) complete(img uint32) uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.finished[img] = true
	for t.finished[t.low] {
		delete(t.finished, t.low)
		t.low++
	}
	return t.low
}

// drainThrough forgets every armed image and advances the cursor past next
// (recovery: every id allocated so far is now either delivered or dead —
// including ids whose results fully arrived but whose waiter observed the
// failure before calling complete, which would otherwise wedge the cursor
// forever).
func (t *completions) drainThrough(next uint32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for img, e := range t.images {
		t.forgetLocked(img, e)
	}
	for t.low <= next {
		delete(t.finished, t.low)
		t.low++
	}
}

// bookkeeping is a snapshot of the requester's completion table, for tests
// asserting nothing leaked after a run.
type bookkeeping struct {
	registered int // armed images
	completed  int // finished ids parked above the gc cursor
	gcLow      uint32
	nextImg    uint32
}

func (c *Cluster) bookkeeping() bookkeeping {
	c.comp.mu.Lock()
	defer c.comp.mu.Unlock()
	return bookkeeping{
		registered: len(c.comp.images),
		completed:  len(c.comp.finished),
		gcLow:      c.comp.low,
		nextImg:    c.nextImg.Load(),
	}
}
