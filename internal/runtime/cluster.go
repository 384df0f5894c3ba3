package runtime

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"distredge/internal/sim"
	"distredge/internal/transport"
)

// Chunk is the wire unit: rows [Lo,Hi) of generation Volume (-1 = the input
// image, -2 a heartbeat) for one image. Payload carries the (scaled)
// activation bytes. It is the transport layer's framed message; which wire
// format and medium carry it is Options.Transport's business.
type Chunk = transport.Message

// chunkKey identifies a chunk's coordinates within one image.
type chunkKey struct {
	volume int
	lo, hi int
}

// instant is a point on the process's monotonic clock, in nanoseconds since
// clockEpoch. Assembly keeps one per arrived chunk and one per ready step; as
// time.Time (which carries a *Location) they made every arrival-map bucket
// and ready slice memory the collector scans, and deliver cost 28 % more CPU
// per image on wire-small.
type instant int64

var clockEpoch = time.Now()

func instantOf(t time.Time) instant { return instant(t.Sub(clockEpoch)) }
func (i instant) time() time.Time   { return clockEpoch.Add(time.Duration(i)) }

// workItem identifies one ready step of one image — the unit the compute
// thread consumes — and when it became ready on the ideal schedule: the
// latest back-dated arrival among the chunks the step needs. The explicit
// struct replaces the seed's packed `img<<16 | step` token, which silently
// corrupted for plans with 2^16 or more steps.
type workItem struct {
	img   uint32
	step  int
	ready instant
}

// workQueue is an unbounded FIFO of ready steps. Enqueueing never blocks,
// which is what makes self-routed chunks safe: deliver runs on the compute
// thread when a step's output feeds a step on the same provider, and a
// bounded channel there deadlocks as soon as the ready-step fan-out exceeds
// the channel capacity with nobody left draining it (the compute thread is
// both producer and consumer).
type workQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []workItem // guarded by mu
	closed bool       // guarded by mu
}

func newWorkQueue() *workQueue {
	q := &workQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues a ready step; it never blocks.
func (q *workQueue) push(w workItem) {
	q.mu.Lock()
	q.items = append(q.items, w)
	q.mu.Unlock()
	q.cond.Signal()
}

// pop dequeues the next ready step, blocking until one is available or the
// queue is closed (second return false). A closed queue abandons any still
// queued work immediately, so teardown never sits through queued emulated
// compute sleeps. The rest shifts down rather than the slice walking forward
// through its backing array, which would shrink its capacity until push had
// to regrow it; the queue holds a handful of steps, so the copy is short.
func (q *workQueue) pop() (workItem, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		return workItem{}, false
	}
	w := q.items[0]
	q.items = q.items[:copy(q.items, q.items[1:])]
	return w, true
}

// takeSameStep appends to into up to max further items for the given step
// (negative max = no bound, the adaptive cap's drain), preserving the queue
// order of everything it leaves behind. It never blocks: it only coalesces
// work that already queued while the compute thread was busy, which is
// exactly the population batching can amortise — an empty queue means the
// device is keeping up and there is nothing to batch. The in-place filter
// writes behind its read cursor, so no reordering, and the taken items land
// in the caller's reused slice, so no allocation.
func (q *workQueue) takeSameStep(step, max int, into []workItem) []workItem {
	if max == 0 {
		return into
	}
	if max < 0 {
		max = int(^uint(0) >> 1)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return into
	}
	taken := 0
	rest := q.items[:0]
	for _, w := range q.items {
		if taken < max && w.step == step {
			into = append(into, w)
			taken++
			continue
		}
		rest = append(rest, w)
	}
	q.items = rest
	return into
}

func (q *workQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// assembly is a provider plan's dependency index, built once when the
// provider starts: every distinct (volume, lo, hi) need of its steps gets a
// dense id, so deliver does one map lookup per chunk and then works on
// slices. Rescanning every step's needs in a per-image map on each arrival
// was a fifth of wire-small's CPU.
type assembly struct {
	ids     map[chunkKey]int32 // need -> dense id
	needers [][]int32          // need id -> the steps that list it, ascending
	needs   [][]int32          // step -> its distinct need ids
	pending []int32            // step -> len(needs[step]): a fresh image's counts
}

func newAssembly(plan ProviderPlan) assembly {
	a := assembly{
		ids:     make(map[chunkKey]int32),
		needs:   make([][]int32, len(plan.Steps)),
		pending: make([]int32, len(plan.Steps)),
	}
	for si, st := range plan.Steps {
		for _, n := range st.Needs {
			k := chunkKey{n.Volume, n.Lo, n.Hi}
			id, ok := a.ids[k]
			if !ok {
				id = int32(len(a.needers))
				a.ids[k] = id
				a.needers = append(a.needers, nil)
			}
			if slices.Contains(a.needs[si], id) {
				continue // a step listing one need twice waits for it once
			}
			a.needs[si] = append(a.needs[si], id)
			a.needers[id] = append(a.needers[id], int32(si))
		}
		a.pending[si] = int32(len(a.needs[si]))
	}
	return a
}

// imageState is one in-flight image's assembly state on a provider, indexed
// by the assembly's need and step ids: which needed chunks have arrived (and
// when, back-dated by their Lag) and how many distinct needs each step still
// waits for. A step is handed to the compute thread when its count reaches
// zero, which happens once: only a need's first arrival decrements.
type imageState struct {
	at      []instant // per need id: the latest arrival
	have    []bool    // per need id
	pending []int32   // per step
}

// Provider is one service provider node: a transport listener plus the
// threads of Section V-A — a receive thread per inbound connection, which
// assembles chunks and queues the steps they complete; one compute thread;
// one send thread per destination — and, when health tracking is on, a
// heartbeat thread.
type Provider struct {
	plan  ProviderPlan
	asm   assembly
	epoch int // deployment epoch, stamped on heartbeats
	tr    transport.Transport
	ln    transport.Listener

	peers     map[int]transport.Conn // guarded by peerMu; lazily dialled outbound links
	peerAddrs map[int]string         // guarded by peerMu
	peerMu    sync.Mutex

	work *workQueue

	mu     sync.Mutex
	images map[uint32]*imageState // guarded by mu; in-flight image -> assembly state
	spare  []*imageState          // guarded by mu; collected, cleared states for reuse
	minImg uint32                 // guarded by mu; images below this are gc'ed; late chunks dropped

	hb     time.Duration // heartbeat period; 0 = disabled
	batch  int           // per-step image batching cap; 1 disables, 0 adaptive
	done   chan struct{}
	closed sync.Once
	rec    statsRecorder
	fail   func(suspect int, err error) // cluster-level error sink; nil drops errors
}

// newProvider starts a provider listening on the given transport. Errors
// that occur while the provider is live (not shutting down) are reported to
// fail, attributed to the peer the provider was talking to.
func newProvider(plan ProviderPlan, epoch int, hb time.Duration, batch int, fail func(int, error), tr transport.Transport) (*Provider, error) {
	ln, err := tr.Listen(plan.Index)
	if err != nil {
		return nil, err
	}
	p := &Provider{
		plan:      plan,
		asm:       newAssembly(plan),
		epoch:     epoch,
		tr:        tr,
		ln:        ln,
		peers:     make(map[int]transport.Conn),
		peerAddrs: make(map[int]string),
		work:      newWorkQueue(),
		images:    make(map[uint32]*imageState),
		hb:        hb,
		batch:     batch,
		done:      make(chan struct{}),
		fail:      fail,
	}
	go p.acceptLoop()
	go p.computeLoop()
	if hb > 0 {
		go p.heartbeatLoop()
	}
	return p, nil
}

// heartbeatLoop periodically beats to the requester over the result link.
// Send errors are deliberately not reported: a beat that cannot be
// delivered surfaces at the monitor as a missed beat, which is the signal.
func (p *Provider) heartbeatLoop() {
	t := time.NewTicker(p.hb)
	defer t.Stop()
	for {
		_ = p.beat()
		select {
		case <-p.done:
			return
		case <-t.C:
		}
	}
}

// beat sends one heartbeat frame to the requester over the result link.
func (p *Provider) beat() error {
	return p.sendTo(RequesterID, Chunk{
		Image:  uint32(p.plan.Index),
		Volume: heartbeatVolume,
		Lo:     int32(p.epoch),
	})
}

// Addr returns the provider's listen address.
func (p *Provider) Addr() string { return p.ln.Addr() }

func (p *Provider) setPeers(addrs map[int]string) {
	p.peerMu.Lock()
	defer p.peerMu.Unlock()
	for k, v := range addrs {
		p.peerAddrs[k] = v
	}
}

func (p *Provider) report(suspect int, err error) {
	if p.fail != nil {
		p.fail(suspect, err)
	}
}

// acceptLoop starts a receive thread per inbound connection. Each one stamps
// a chunk's ideal ready time as it leaves the wire — the receive stamp
// back-dated by its Lag — and assembles it on the spot, so assembly and the
// work-queue push run inside the device's sleep to its absolute deadline
// whenever the step costs more than they take. Assembly only records a
// chunk's coordinates: the payload is dead once delivered and goes back to
// the transport's pool.
func (p *Provider) acceptLoop() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		go func() {
			for {
				ch, err := c.Recv()
				if err != nil {
					c.Close()
					return
				}
				select {
				case <-p.done:
					c.Close()
					return
				default:
				}
				p.rec.addReceived()
				p.deliver(ch, instantOf(time.Now().Add(-ch.Lag)))
				transport.RecyclePayload(p.tr, ch.Payload)
			}
		}()
	}
}

// deliver marks a chunk arrived at its ideal ready time and schedules the
// steps it completes, in ascending step order, each ready at the latest
// arrival among its needs. A chunk no step needs is ignored; a duplicate
// moves its need's arrival time but completes nothing again. It never
// blocks (the ready queue is unbounded), so it is safe to call from the
// receive threads and — for self-routed chunks — the compute thread.
func (p *Provider) deliver(ch Chunk, at instant) {
	id, ok := p.asm.ids[chunkKey{int(ch.Volume), int(ch.Lo), int(ch.Hi)}]
	if !ok {
		return
	}
	p.mu.Lock()
	img := ch.Image
	if img < p.minImg {
		// Late chunk for a completed, gc'ed image: dropping it (rather than
		// resurrecting empty assembly state) guarantees no step ever runs
		// twice.
		p.mu.Unlock()
		return
	}
	st, ok := p.images[img]
	if !ok {
		if n := len(p.spare); n > 0 {
			st, p.spare = p.spare[n-1], p.spare[:n-1]
		} else {
			st = &imageState{
				at:      make([]instant, len(p.asm.needers)),
				have:    make([]bool, len(p.asm.needers)),
				pending: make([]int32, len(p.plan.Steps)),
			}
		}
		copy(st.pending, p.asm.pending)
		p.images[img] = st
	}
	st.at[id] = at
	if st.have[id] {
		p.mu.Unlock()
		return
	}
	st.have[id] = true

	var readyBuf [8]workItem // a chunk completes a step or two; past 8 append spills
	ready := readyBuf[:0]
	for _, si := range p.asm.needers[id] {
		st.pending[si]--
		if st.pending[si] > 0 {
			continue
		}
		latest := instant(math.MinInt64)
		for _, n := range p.asm.needs[si] {
			latest = max(latest, st.at[n])
		}
		ready = append(ready, workItem{img: img, step: int(si), ready: latest})
	}
	p.mu.Unlock()
	for _, w := range ready {
		p.work.push(w)
	}
}

// computeLoop is the compute thread: it emulates the split-part execution
// and hands finished outputs straight to their destination's send thread
// (or back to assembly for self-routes). With Options.Batch != 1 it
// coalesces same-step work items that queued while it was busy into one
// invocation charged the sublinear sim.BatchedComputeSec cost; outputs are
// still emitted per image, so everything downstream of the compute thread is
// oblivious to batching.
//
// The device is paced on its ideal schedule (transport.Pacer): a step starts
// when its inputs were ideally ready and the device ideally free, and the
// thread sleeps to the absolute end. However late it is running when it wakes
// rides on the output chunks as Lag for the next link or device to absorb; a
// self-routed chunk never leaves the thread, so it is delivered at the ideal
// end itself. The device is ideally free at that end too: what the thread
// does after waking (filling and queueing the outputs) does not push a step
// that is already waiting back, its sleep absorbs it.
//
// The send threads start lazily, one per destination, so transfers to
// distinct peers overlap while chunks to the same peer stay ordered. A
// single serial sender would serialise what both the simulator (independent
// directed-link busy floors) and a real testbed (one TCP stream per pair)
// let proceed in parallel once a shaped transport charges trace latency per
// payload.
func (p *Provider) computeLoop() {
	var device transport.Pacer
	senders := make(map[int]chan Chunk)
	batch := make([]workItem, 0, p.batch)
	for {
		w, ok := p.work.pop()
		if !ok {
			return
		}
		batch = append(batch[:0], w)
		if p.batch != 1 {
			lim := p.batch - 1 // p.batch == 0: adaptive, drain all (lim -1)
			batch = p.work.takeSameStep(w.step, lim, batch)
		}
		st := &p.plan.Steps[w.step]
		cost := st.ComputeSec
		if len(batch) > 1 {
			cost = sim.BatchedComputeSec(st.ComputeSec, len(batch))
		}
		ready := w.ready // a batch starts once its last member is ready
		for _, b := range batch[1:] {
			ready = max(ready, b.ready)
		}
		end, lag := device.Charge(ready.time(), time.Duration(cost*float64(time.Second)))
		p.rec.addComputeBatch(cost, len(batch))
		for _, w := range batch {
			for _, r := range st.Routes {
				ch := Chunk{
					Image:  w.img,
					Volume: int32(st.Volume),
					Lo:     int32(r.Lo),
					Hi:     int32(r.Hi),
					Lag:    lag,
				}
				if r.Dest == p.plan.Index {
					// A self-route never touches the wire and assembly
					// reads only a chunk's coordinates: it carries no
					// payload.
					p.deliver(ch, instantOf(end))
					continue
				}
				ch.Payload = transport.GetPayload(p.tr, (r.Hi-r.Lo)*st.RowBytes)
				fillActivation(ch.Payload, ch.Image^uint32(st.Volume)<<8^uint32(r.Lo)<<16)
				q, ok := senders[r.Dest]
				if !ok {
					q = make(chan Chunk, sendQueueLen)
					senders[r.Dest] = q
					go p.destSender(r.Dest, q)
				}
				select {
				case q <- ch:
				case <-p.done:
					return
				}
			}
		}
	}
}

// sendQueueLen bounds each destination's send queue, and with it the pooled
// payloads a peer that drains slowly can hold back: past it the compute
// thread waits for that peer's sender. It is deep enough that the outputs of
// a burst of steps queue without the compute thread waiting, and the backlog
// is what lets the sender coalesce their flushes.
const sendQueueLen = 256

// destSender is the send thread for one destination: it ships chunks in
// order, coalescing flushes across bursts. The queue backlog is the
// queue-drain signal, so a run of small chunks headed to the same peer
// shares one socket write (on transports without buffered sends the
// Coalescer degenerates to plain per-message Send). Failures while the
// cluster is live are reported so the requester can fail the run
// immediately instead of waiting out the per-image timeout.
func (p *Provider) destSender(dest int, q chan Chunk) {
	var co *transport.Coalescer
	for {
		select {
		case <-p.done:
			return
		case ch := <-q:
			if co == nil {
				c, err := p.peerConn(dest)
				if err != nil {
					p.reportSendErr(dest, err)
					continue // retry the dial on the next chunk
				}
				co = transport.NewCoalescer(c)
			}
			if err := co.Send(ch, len(q) > 0); err != nil {
				p.reportSendErr(dest, err)
				continue
			}
			p.rec.addSent()
		}
	}
}

// reportSendErr reports a send failure to the cluster unless the provider
// is shutting down (connection teardown is expected then). The report blames
// the destination, and the first report a deployment hears is the one
// recovery acts on, so an accusation against a peer counts only from a
// provider that can itself still reach the requester: it sends one beat
// first and keeps quiet if that fails. A partitioned provider's sends all
// fail, and a real one could not deliver the report anyway; its own silence
// convicts it at the monitor, while the others' sends to it (and the
// scatter) still name it correctly.
func (p *Provider) reportSendErr(dest int, err error) {
	select {
	case <-p.done:
		return
	default:
	}
	if dest != RequesterID && p.beat() != nil {
		return
	}
	p.report(dest, fmt.Errorf("runtime: provider %d send to %d: %w", p.plan.Index, dest, err))
}

// peerConn returns the lazily-dialled outbound link to dest.
func (p *Provider) peerConn(dest int) (transport.Conn, error) {
	p.peerMu.Lock()
	defer p.peerMu.Unlock()
	if o, ok := p.peers[dest]; ok {
		return o, nil
	}
	addr, has := p.peerAddrs[dest]
	if !has {
		return nil, fmt.Errorf("runtime: provider %d has no address for %d", p.plan.Index, dest)
	}
	c, err := p.tr.Dial(p.plan.Index, addr)
	if err != nil {
		return nil, err
	}
	p.peers[dest] = c
	return c, nil
}

func (p *Provider) sendTo(dest int, ch Chunk) error {
	o, err := p.peerConn(dest)
	if err != nil {
		return err
	}
	return o.Send(ch)
}

// gc drops assembly state for every image below `before`. The requester
// advances `before` only past images whose results it has fully assembled,
// so with a window of in-flight images an early finisher never tears down
// state a straggler still needs. Dropped states are cleared and kept for
// deliver to reuse, which re-seeds their step counts, so the spares never
// outnumber the images that were in flight at once.
func (p *Provider) gc(before uint32) {
	p.mu.Lock()
	if before > p.minImg {
		p.minImg = before
	}
	for img, st := range p.images {
		if img < p.minImg {
			delete(p.images, img)
			clear(st.have)
			p.spare = append(p.spare, st)
		}
	}
	p.mu.Unlock()
}

// close shuts the provider down.
func (p *Provider) close() {
	p.closed.Do(func() {
		close(p.done)
		p.work.close()
		p.ln.Close()
		p.peerMu.Lock()
		for _, o := range p.peers {
			o.Close()
		}
		p.peerMu.Unlock()
	})
}
