package gateway

// This file holds the admission scheduler's data structures: a ring deque
// per tenant backlog and an indexed min-heap of admissible tenants. The
// heap turns each admission pick from an O(n)-tenants scan into O(log n),
// which is what keeps a 1000+-tenant gateway's scheduler off the flame
// graph; the deques make head pops allocation-free (the former slice
// queues leaked their popped prefix until reallocation).
//
// Heap invariant: the heap contains exactly the tenants that are
// admissible — non-empty backlog AND per-tenant in-flight below the
// tenant's window (the global window is checked outside, since it gates
// every tenant equally). Every state transition re-establishes it:
//
//	enqueue:    may turn a tenant admissible        -> push
//	admit:      changes the key (head seq/vserved)  -> fix, or remove if
//	            the pop emptied the backlog or hit the tenant window
//	completion: frees tenant window                 -> push if backlogged
//	expiry:     pops the head prefix                -> fix, or remove
//
// The ordering key is the admission policy's, bit-identical to the linear
// scan it replaces (and so to sim.Serve): FIFO orders by the
// head request's global sequence number, WFQ by vserved + 1/weight with
// ties to the lower tenant index. pickScanLocked preserves the old scan as
// the reference implementation; TestHeapMatchesScan drives both through
// seeded traffic and insists on identical picks.

// ring is a growable FIFO deque of requests backed by a power-of-two
// circular buffer. front/pop require a non-empty ring.
type ring struct {
	buf  []*request
	head int
	size int
}

func (r *ring) len() int { return r.size }

func (r *ring) front() *request { return r.buf[r.head] }

func (r *ring) push(x *request) {
	if r.size == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.size)&(len(r.buf)-1)] = x
	r.size++
}

func (r *ring) pop() *request {
	x := r.buf[r.head]
	r.buf[r.head] = nil // drop the reference; expired requests must not pin memory
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.size--
	return x
}

func (r *ring) grow() {
	n := len(r.buf) * 2
	if n == 0 {
		n = 8
	}
	buf := make([]*request, n)
	for i := 0; i < r.size; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = buf, 0
}

// admissibleLocked reports whether tenant t can be admitted right now,
// global window aside: it has backlog and free tenant-window slots.
func (g *Gateway) admissibleLocked(t int) bool {
	return g.queues[t].len() > 0 && g.tinfl[t] < g.tenants[t].Window
}

// heapLessLocked is the admission order: the policy key, ties to the lower
// tenant index — bit-identical to the scan's first-strict-improvement
// rule (FIFO sequence numbers are globally unique, so only WFQ can tie).
func (g *Gateway) heapLessLocked(a, b int) bool {
	switch g.cfg.Policy {
	case PolicyWFQ:
		ka := g.vserved[a] + 1/g.tenants[a].Weight
		kb := g.vserved[b] + 1/g.tenants[b].Weight
		if ka != kb {
			return ka < kb
		}
	default: // PolicyFIFO
		ka, kb := g.queues[a].front().seq, g.queues[b].front().seq
		if ka != kb {
			return ka < kb
		}
	}
	return a < b
}

func (g *Gateway) heapSwapLocked(i, j int) {
	h := g.heap
	h[i], h[j] = h[j], h[i]
	g.heapIdx[h[i]] = i
	g.heapIdx[h[j]] = j
}

func (g *Gateway) heapUpLocked(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !g.heapLessLocked(g.heap[i], g.heap[parent]) {
			break
		}
		g.heapSwapLocked(i, parent)
		i = parent
	}
}

func (g *Gateway) heapDownLocked(i int) {
	n := len(g.heap)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && g.heapLessLocked(g.heap[l], g.heap[min]) {
			min = l
		}
		if r < n && g.heapLessLocked(g.heap[r], g.heap[min]) {
			min = r
		}
		if min == i {
			return
		}
		g.heapSwapLocked(i, min)
		i = min
	}
}

// heapPushLocked adds tenant t (must not be present).
func (g *Gateway) heapPushLocked(t int) {
	g.heapIdx[t] = len(g.heap)
	g.heap = append(g.heap, t)
	g.heapUpLocked(g.heapIdx[t])
}

// heapRemoveLocked deletes tenant t (must be present).
func (g *Gateway) heapRemoveLocked(t int) {
	i := g.heapIdx[t]
	last := len(g.heap) - 1
	if i != last {
		g.heapSwapLocked(i, last)
	}
	g.heap = g.heap[:last]
	g.heapIdx[t] = -1
	if i < len(g.heap) {
		g.heapFixAtLocked(i)
	}
}

// heapFixLocked restores t's position after its key changed.
func (g *Gateway) heapFixLocked(t int) {
	g.heapFixAtLocked(g.heapIdx[t])
}

func (g *Gateway) heapFixAtLocked(i int) {
	g.heapUpLocked(i)
	g.heapDownLocked(i)
}

// heapSyncLocked re-establishes the invariant for tenant t after any state
// transition: present iff admissible, repositioned if its key may have
// changed. All transitions funnel through this one helper so no path can
// half-update the heap.
func (g *Gateway) heapSyncLocked(t int) {
	in := g.heapIdx[t] >= 0
	want := g.admissibleLocked(t)
	switch {
	case want && !in:
		g.heapPushLocked(t)
	case !want && in:
		g.heapRemoveLocked(t)
	case want && in:
		g.heapFixLocked(t)
	}
}

// pickScanLocked is the former O(n) admission pick, kept as the reference
// implementation the heap is verified against (and the baseline
// BenchmarkGatewayPick measures the speedup over). The rule is
// bit-identical to sim.Serve: FIFO takes the lowest global
// sequence number; WFQ takes the lowest vserved + 1/weight, ties to the
// lower tenant index.
func (g *Gateway) pickScanLocked() int {
	best := -1
	var bestFIFO uint64
	var bestWFQ float64
	for t := range g.queues {
		if g.queues[t].len() == 0 || g.tinfl[t] >= g.tenants[t].Window {
			continue
		}
		switch g.cfg.Policy {
		case PolicyFIFO:
			if key := g.queues[t].front().seq; best < 0 || key < bestFIFO {
				best, bestFIFO = t, key
			}
		case PolicyWFQ:
			if key := g.vserved[t] + 1/g.tenants[t].Weight; best < 0 || key < bestWFQ {
				best, bestWFQ = t, key
			}
		}
	}
	return best
}
