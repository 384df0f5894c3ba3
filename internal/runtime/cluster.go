package runtime

import (
	"fmt"
	"math"
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

// outMsg pairs a chunk with its destination for the send thread. The
// explicit struct replaces the seed's unexported destHint field on Chunk,
// which only worked because gob skipped it.
type outMsg struct {
	dest int
	ch   Chunk
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

// inMsg is a received chunk with its ideal ready time: the receive stamp
// back-dated by the chunk's Lag. The stamp is taken as the chunk leaves the
// wire, so the hops from there to the compute thread run inside the device's
// sleep to its absolute deadline whenever the step costs more than they take.
type inMsg struct {
	ch    Chunk
	ready instant
}

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

// imageState is one in-flight image's assembly state on a provider: which
// chunks have arrived (and when, back-dated by their Lag) and which steps
// have already been handed to the compute thread. The explicit scheduled
// set replaces the seed's chunkKey{-100, si, 0} sentinel, which collided
// with a legitimate volume id of -100.
type imageState struct {
	arrived   map[chunkKey]instant
	scheduled []bool // indexed by step
}

// Provider is one service provider node: a transport listener plus the
// worker goroutines of Section V-A (receive, compute, send) and — when
// health tracking is on — a heartbeat thread.
type Provider struct {
	plan  ProviderPlan
	epoch int // deployment epoch, stamped on heartbeats
	tr    transport.Transport
	ln    transport.Listener

	peers     map[int]transport.Conn // guarded by peerMu; lazily dialled outbound links
	peerAddrs map[int]string         // guarded by peerMu
	peerMu    sync.Mutex

	inbox  chan inMsg
	work   *workQueue
	outbox chan outMsg

	mu     sync.Mutex
	images map[uint32]*imageState // guarded by mu; in-flight image -> assembly state
	spare  []*imageState          // guarded by mu; collected, cleared states for reuse
	minImg uint32                 // guarded by mu; images below this are gc'ed; late chunks dropped

	hb     time.Duration // heartbeat period; 0 = disabled
	batch  int           // per-step image batching cap; 1 disables, 0 adaptive
	done   chan struct{}
	wg     sync.WaitGroup
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
		epoch:     epoch,
		tr:        tr,
		ln:        ln,
		peers:     make(map[int]transport.Conn),
		peerAddrs: make(map[int]string),
		inbox:     make(chan inMsg, 256),
		work:      newWorkQueue(),
		outbox:    make(chan outMsg, 256),
		images:    make(map[uint32]*imageState),
		hb:        hb,
		batch:     batch,
		done:      make(chan struct{}),
		fail:      fail,
	}
	p.wg.Add(4)
	go p.acceptLoop()
	go p.recvLoop()
	go p.computeLoop()
	go p.sendLoop()
	if hb > 0 {
		p.wg.Add(1)
		go p.heartbeatLoop()
	}
	return p, nil
}

// heartbeatLoop periodically beats to the requester over the result link.
// Send errors are deliberately not reported: a beat that cannot be
// delivered surfaces at the monitor as a missed beat, which is the signal.
func (p *Provider) heartbeatLoop() {
	defer p.wg.Done()
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

func (p *Provider) acceptLoop() {
	defer p.wg.Done()
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
				case p.inbox <- inMsg{ch: ch, ready: instantOf(time.Now().Add(-ch.Lag))}:
				case <-p.done:
					c.Close()
					return
				}
			}
		}()
	}
}

// recvLoop is the receive thread: it assembles arriving chunks and enqueues
// steps whose inputs are complete.
func (p *Provider) recvLoop() {
	defer p.wg.Done()
	for {
		select {
		case <-p.done:
			return
		case in := <-p.inbox:
			p.rec.addReceived()
			p.deliver(in.ch, in.ready)
			// Assembly only records arrival coordinates; the payload is
			// dead once delivered and goes back to the transport's pool.
			transport.RecyclePayload(p.tr, in.ch.Payload)
		}
	}
}

// deliver marks a chunk arrived at its ideal ready time and schedules the
// steps it completes, each ready at the latest such time among its needs.
// It never blocks (the ready queue is unbounded), so it is safe to call
// from both the receive thread and — for self-routed chunks — the compute
// thread.
func (p *Provider) deliver(ch Chunk, at instant) {
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
				arrived:   make(map[chunkKey]instant),
				scheduled: make([]bool, len(p.plan.Steps)),
			}
		}
		p.images[img] = st
	}
	st.arrived[chunkKey{int(ch.Volume), int(ch.Lo), int(ch.Hi)}] = at

	var readyBuf [8]workItem // a chunk completes a step or two; past 8 append spills
	ready := readyBuf[:0]
	for si := range p.plan.Steps {
		if st.scheduled[si] {
			continue
		}
		needs := p.plan.Steps[si].Needs
		if len(needs) == 0 {
			continue
		}
		all := true
		latest := instant(math.MinInt64)
		for _, need := range needs {
			t, ok := st.arrived[chunkKey{need.Volume, need.Lo, need.Hi}]
			if !ok {
				all = false
				break
			}
			latest = max(latest, t)
		}
		if all {
			st.scheduled[si] = true
			ready = append(ready, workItem{img: img, step: si, ready: latest})
		}
	}
	p.mu.Unlock()
	for _, w := range ready {
		p.work.push(w)
	}
}

// computeLoop is the compute thread: it emulates the split-part execution
// and hands finished outputs to the send thread (or back to assembly for
// self-routes). With Options.Batch != 1 it coalesces same-step work items
// that queued while it was busy into one invocation charged the sublinear
// sim.BatchedComputeSec cost; outputs are still emitted per image, so
// everything downstream of the compute thread is oblivious to batching.
//
// The device is paced on its ideal schedule (transport.Pacer): a step starts
// when its inputs were ideally ready and the device ideally free, and the
// thread sleeps to the absolute end. However late it is running when it wakes
// rides on the output chunks as Lag for the next link or device to absorb; a
// self-routed chunk never leaves the thread, so it is delivered at the ideal
// end itself. The device is ideally free at that end too: what the thread
// does after waking (filling and queueing the outputs) does not push a step
// that is already waiting back, its sleep absorbs it.
func (p *Provider) computeLoop() {
	defer p.wg.Done()
	var device transport.Pacer
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
				select {
				case p.outbox <- outMsg{dest: r.Dest, ch: ch}:
				case <-p.done:
					return
				}
			}
		}
	}
}

// sendLoop is the send thread: it dispatches outbound chunks to one sender
// worker per destination, so transfers to distinct peers overlap while
// chunks to the same peer stay ordered. A single serial sender was
// equivalent when sends were localhost-cheap, but with a shaped transport
// charging real trace latency per payload it would serialise what both the
// simulator (independent directed-link busy floors) and a real testbed
// (one TCP stream per pair) allow to proceed in parallel.
func (p *Provider) sendLoop() {
	defer p.wg.Done()
	workers := make(map[int]chan outMsg)
	for {
		select {
		case <-p.done:
			return
		case o := <-p.outbox:
			w, ok := workers[o.dest]
			if !ok {
				w = make(chan outMsg, 64)
				workers[o.dest] = w
				p.wg.Add(1)
				go p.destSender(o.dest, w)
			}
			select {
			case w <- o:
			case <-p.done:
				return
			}
		}
	}
}

// destSender ships chunks to one destination in order, coalescing flushes
// across bursts: the channel backlog is the queue-drain signal, so a run
// of small chunks headed to the same peer shares one socket write (on
// transports without buffered sends the Coalescer degenerates to plain
// per-message Send). Failures while the cluster is live are reported so
// the requester can fail the run immediately instead of waiting out the
// per-image timeout.
func (p *Provider) destSender(dest int, w chan outMsg) {
	defer p.wg.Done()
	var co *transport.Coalescer
	for {
		select {
		case <-p.done:
			return
		case o := <-w:
			if co == nil {
				c, err := p.peerConn(dest)
				if err != nil {
					p.reportSendErr(dest, err)
					continue // retry the dial on the next chunk
				}
				co = transport.NewCoalescer(c)
			}
			if err := co.Send(o.ch, len(w) > 0); err != nil {
				p.reportSendErr(dest, err)
				continue
			}
			p.rec.addSent(dest)
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
// deliver to reuse — their maps keep their grown buckets — so the spares
// never outnumber the images that were in flight at once.
func (p *Provider) gc(before uint32) {
	p.mu.Lock()
	if before > p.minImg {
		p.minImg = before
	}
	for img, st := range p.images {
		if img < p.minImg {
			delete(p.images, img)
			clear(st.arrived)
			clear(st.scheduled)
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
