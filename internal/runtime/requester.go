package runtime

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"distredge/internal/sim"
	"distredge/internal/strategy"
	"distredge/internal/transport"
)

// Cluster is a deployed strategy: live providers plus the requester-side
// bookkeeping needed to stream images through them and — with
// Options.Replan — to survive providers dying under any caller.
type Cluster struct {
	env  *sim.Env
	opts Options

	tr transport.Transport
	ln transport.Listener

	// gate is the serving gate. Every attempt (one image's admit + await)
	// holds it shared for its whole life and heal holds it exclusively, so
	// the deployment an attempt loaded cannot be torn down under it and a
	// recovery runs only when no admission or completion waiter is live,
	// whoever the callers are. Waiters leave on their deployment's failed
	// channel, so the writer never waits on a healthy image.
	gate sync.RWMutex
	dep  atomic.Pointer[deployment]
	// healMu single-flights recovery: callers whose attempts failed on the
	// same deployment queue here, the first heals, the rest find a newer
	// deployment published and return without touching the gate.
	healMu  sync.Mutex
	healErr error // guarded by healMu; a failed recovery is final

	// sendMu serialises input scatters across concurrent submitters:
	// per-destination sends inside one scatter stay concurrent (on the
	// deployment's scatter senders), but successive images enter the
	// uplink one at a time, matching the pipeline simulator's uplink busy
	// floor no matter how many callers (Serve's window of workers, gateway
	// Submits) race to admit.
	sendMu  sync.Mutex
	scatter scatterState // guarded by sendMu; the scatter in flight
	// comp is the completion table: the images awaiting result chunks,
	// matched through the serving deployment's await index, and the gc
	// cursor over the finished ones (completions.go).
	comp    *completions
	nextImg atomic.Uint32 // monotonic across runs, so image ids are never reused

	done   chan struct{}
	closed sync.Once

	health *healthMonitor

	// Recovery accounting over the cluster's life (see Recovery).
	recoveries atomic.Int64
	requeued   atomic.Int64
	replanUS   atomic.Int64
}

// deployment is one epoch's serving state as a single value: everything but
// the lazily dialled links and the failure latch is immutable once
// published, so an attempt loads the pointer once and nothing it runs on
// can change under it. Recovery never edits a deployment; it builds the next
// one and swaps the pointer. Provider error sinks are bound to the
// deployment that started them, so a torn-down deployment's dying gasps
// land on a latch nobody waits on; the epoch number matters only where it
// crosses the wire (heartbeats) and comes back (the monitor's verdicts).
type deployment struct {
	epoch     int
	strat     *strategy.Strategy
	plan      *Plan
	await     assembly    // plan.Await's dense index, one step needing every awaited chunk
	providers []*Provider // indexed by provider index; nil = quarantined
	alive     []bool      // the liveness mask re-planning runs against

	linkMu sync.Mutex
	links  map[int]transport.Conn // guarded by linkMu; requester -> provider scatter links
	// scatterTo feeds one long-lived sender per scatter destination but the
	// last, which sendInput sends to itself; indexed parallel to
	// plan.Scatter. Each channel holds one job: a scatter hands each sender
	// one chunk and waits for all of them before the next image's.
	scatterTo []chan scatterJob
	senders   sync.WaitGroup // the scatter senders, until close has stopped them
	closing   sync.Once

	// failed closes on the deployment's first failure and wakes every waiter,
	// so a dead peer surfaces immediately instead of after the per-image
	// timeout.
	failed  chan struct{}
	latchMu sync.Mutex
	failErr error // guarded by latchMu
	failIdx int   // guarded by latchMu; suspected dead provider, -1 unknown
}

// errClosed is what admission and recovery return once Close has begun.
var errClosed = errors.New("runtime: cluster closed")

// Deploy builds the plan for a strategy and starts one provider per device
// over Options.Transport (default: localhost TCP with the binary chunk
// codec).
func Deploy(env *sim.Env, strat *strategy.Strategy, opts Options) (*Cluster, error) {
	opts = opts.withDefaults()
	plan, err := BuildPlan(env, strat, opts)
	if err != nil {
		return nil, err
	}
	n := env.NumProviders()
	c := &Cluster{
		env:  env,
		opts: opts,
		comp: newCompletions(),
		tr:   opts.Transport,
		done: make(chan struct{}),
	}
	// The requester's result listener comes first: providers are started
	// knowing where results and heartbeats go.
	if c.ln, err = c.tr.Listen(RequesterID); err != nil {
		return nil, err
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	d, err := c.start(0, strat, plan, alive)
	if err != nil {
		c.ln.Close()
		return nil, err
	}
	c.dep.Store(d)
	// The monitor must exist before acceptResults starts routing beats to it.
	if opts.HeartbeatInterval > 0 {
		c.health = newHealthMonitor(c, n, opts.HeartbeatInterval, opts.HeartbeatMisses)
		c.health.arm(0, alive)
	}
	go c.acceptResults()
	return c, nil
}

// start brings up the next deployment: one provider per live index of the
// plan, all told where their peers and the requester listen. Deploy and
// recovery both come through here. On error everything started is closed.
func (c *Cluster) start(epoch int, strat *strategy.Strategy, plan *Plan, alive []bool) (*deployment, error) {
	d := &deployment{
		epoch:     epoch,
		strat:     strat,
		plan:      plan,
		await:     newAssembly(ProviderPlan{Steps: []Step{{Needs: plan.Await}}}),
		providers: make([]*Provider, len(alive)),
		alive:     alive,
		links:     make(map[int]transport.Conn),
		failed:    make(chan struct{}),
		failIdx:   -1,
	}
	// Size the transport's wire buffers to the largest chunk the plan will
	// ship, so a full chunk crosses to the socket in one write.
	transport.SetBufferHint(c.tr, plan.maxChunkBytes())
	// Reports are dropped once cluster-wide teardown has begun: Close tears
	// providers down one by one, so a not-yet-closed provider's send to an
	// already-closed peer must not record a spurious failure.
	sink := func(suspect int, err error) {
		select {
		case <-c.done:
		default:
			d.fail(suspect, err)
		}
	}
	addrs := map[int]string{RequesterID: c.ln.Addr()}
	for _, pp := range plan.Providers {
		if !alive[pp.Index] {
			continue
		}
		p, err := newProvider(pp, epoch, c.opts.HeartbeatInterval, c.opts.Batch, sink, c.tr)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("runtime: start provider %d: %w", pp.Index, err)
		}
		d.providers[pp.Index] = p
		addrs[pp.Index] = p.Addr()
	}
	for _, p := range d.providers {
		if p != nil {
			p.setPeers(addrs)
		}
	}
	d.scatterTo = make([]chan scatterJob, max(len(plan.Scatter)-1, 0))
	for k := range d.scatterTo {
		d.scatterTo[k] = make(chan scatterJob, 1)
		d.senders.Add(1)
		go d.scatterSender(c.tr, plan.ScatterDest[k], d.scatterTo[k])
	}
	return d, nil
}

// fail latches the deployment's first failure, remembering the suspected
// provider (-1 = unknown), and wakes every waiter.
func (d *deployment) fail(suspect int, err error) {
	d.latchMu.Lock()
	defer d.latchMu.Unlock()
	if d.failErr == nil {
		d.failErr, d.failIdx = err, suspect
		close(d.failed)
	}
}

// cause returns the latched failure and its suspect (-1, nil while healthy).
func (d *deployment) cause() (suspect int, err error) {
	d.latchMu.Lock()
	defer d.latchMu.Unlock()
	return d.failIdx, d.failErr
}

// link returns the lazily dialled scatter link to provider dest.
func (d *deployment) link(tr transport.Transport, dest int) (transport.Conn, error) {
	d.linkMu.Lock()
	defer d.linkMu.Unlock()
	if o, ok := d.links[dest]; ok {
		return o, nil
	}
	if dest < 0 || dest >= len(d.providers) || d.providers[dest] == nil {
		return nil, fmt.Errorf("runtime: provider %d is quarantined", dest)
	}
	o, err := tr.Dial(RequesterID, d.providers[dest].Addr())
	if err != nil {
		return nil, err
	}
	d.links[dest] = o
	return o, nil
}

// close tears the deployment down: scatter senders and links, then every
// provider. A deployment whose recovery failed stays published and is
// closed again by Cluster.Close; the second call does nothing. The senders
// are idle, so they exit at once: recovery and Close both hold the serving
// gate exclusively first, and no attempt admits past a failed deployment or
// a closed cluster.
func (d *deployment) close() {
	d.closing.Do(func() {
		for _, jobs := range d.scatterTo {
			close(jobs)
		}
		d.senders.Wait()
		d.linkMu.Lock()
		for _, o := range d.links {
			o.Close()
		}
		d.linkMu.Unlock()
		for _, p := range d.providers {
			if p != nil {
				p.close()
			}
		}
	})
}

// Addr returns the requester's result listener address.
func (c *Cluster) Addr() string { return c.ln.Addr() }

// failEpoch is where an epoch number comes back off the wire: the health
// monitor's verdict on a provider it watched in that epoch. A verdict on a
// torn-down deployment is dropped.
func (c *Cluster) failEpoch(epoch, suspect int, err error) {
	if d := c.dep.Load(); d.epoch == epoch {
		d.fail(suspect, err)
	}
}

// Err returns the first error the serving deployment recorded, or nil while
// healthy. With Options.Replan the next Submit heals the cluster and Err
// reads nil again; without it, failure is sticky.
func (c *Cluster) Err() error {
	_, err := c.dep.Load().cause()
	return err
}

func (c *Cluster) acceptResults() {
	for {
		cn, err := c.ln.Accept()
		if err != nil {
			return
		}
		go func() {
			for {
				ch, err := cn.Recv()
				if err != nil {
					cn.Close()
					return
				}
				if ch.Volume == heartbeatVolume {
					if c.health != nil {
						c.health.beat(int(ch.Image), int(ch.Lo))
					}
					continue
				}
				// Result payloads are bookkeeping-only: completion reads
				// only a chunk's coordinates.
				transport.RecyclePayload(c.tr, ch.Payload)
				c.comp.arrived(ch)
			}
		}()
	}
}

// register allocates the next image id and arms it against the
// deployment's await index.
func (c *Cluster) register(d *deployment) (uint32, *waiter) {
	img := c.nextImg.Add(1)
	return img, c.comp.register(img, &d.await)
}

// complete records a finished image — or one whose scatter failed, which
// the attempt's release disarms — and advances the gc cursor: provider
// assembly state is dropped only once every image at or below it has
// finished, so an early finisher never tears down state a straggler in the
// admission window still needs, and a dead id never wedges the cursor below
// it.
func (c *Cluster) complete(d *deployment, img uint32) {
	low := c.comp.complete(img)
	for _, p := range d.providers {
		if p != nil {
			p.gc(low)
		}
	}
}

// scatterState is one image's scatter in flight: the destinations being
// sent to concurrently and the first failure among them. The cluster keeps
// one and reuses it for every image under sendMu, and the deployment's
// scatter senders are long-lived, so a scatter allocates nothing.
type scatterState struct {
	wg      sync.WaitGroup
	mu      sync.Mutex
	err     error // guarded by mu
	errDest int   // guarded by mu
}

// send ships one input chunk to dest over the deployment's scatter link,
// recording the scatter's first failure.
func (s *scatterState) send(tr transport.Transport, d *deployment, dest int, ch Chunk) {
	o, err := d.link(tr, dest)
	if err == nil {
		err = o.Send(ch)
	}
	if err != nil {
		s.mu.Lock()
		if s.err == nil {
			s.err, s.errDest = err, dest
		}
		s.mu.Unlock()
	}
}

// scatterJob is one input chunk handed to a scatter sender, with the
// scatter it belongs to.
type scatterJob struct {
	s  *scatterState
	ch Chunk
}

// scatterSender ships the input chunks for dest until the deployment
// closes its channel.
func (d *deployment) scatterSender(tr transport.Transport, dest int, jobs <-chan scatterJob) {
	defer d.senders.Done()
	for j := range jobs {
		j.s.send(tr, d, dest, j.ch)
		j.s.wg.Done()
	}
}

// sendInput scatters one image's input rows to the volume-0 providers.
// Per-destination sends run concurrently — the single-image oracle's
// scatter model, and what per-pair connections really allow — on the
// deployment's scatter senders, with the last one on the caller's
// goroutine, while sendMu keeps successive images' scatters ordered like
// the pipeline simulator's uplink busy floor. A failed scatter is
// attributed to its destination provider so recovery can quarantine it.
func (c *Cluster) sendInput(d *deployment, img uint32) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	plan := d.plan
	s := &c.scatter
	s.err, s.errDest = nil, -1
	last := len(plan.Scatter) - 1
	for k, need := range plan.Scatter {
		dest := plan.ScatterDest[k]
		ch := Chunk{
			Image:   img,
			Volume:  volInput,
			Lo:      int32(need.Lo),
			Hi:      int32(need.Hi),
			Payload: transport.GetPayload(c.tr, (need.Hi-need.Lo)*plan.InputRowBytes),
		}
		fillActivation(ch.Payload, img^uint32(need.Lo)<<16)
		if k == last {
			s.send(c.tr, d, dest, ch)
			break
		}
		s.wg.Add(1)
		d.scatterTo[k] <- scatterJob{s, ch}
	}
	s.wg.Wait()
	if s.err != nil {
		err := fmt.Errorf("runtime: scatter image %d to provider %d: %w", img, s.errDest, s.err)
		d.fail(s.errDest, err)
		return err
	}
	return nil
}

// Submit streams one image through the deployed strategy and blocks until
// its result assembles. It is the cluster's only admission path, safe for
// arbitrary concurrent callers: Serve runs a window of workers calling it,
// and the serving gateway (internal/gateway) multiplexes many tenants'
// requests over one deployed fleet through it, supplying its own windowing,
// fairness and deadlines.
//
// Without Options.Replan a failure — the per-image timeout, a dead peer,
// missed heartbeats — is sticky (see Err) and surfaces from every in-flight
// and subsequent Submit. With it, a caller whose attempt failed heals the
// cluster (or finds it already healed by another caller) and re-scatters its
// own image on the new deployment, so the call returns nil across a provider
// death and an error only when recovery itself failed, which is final.
func (c *Cluster) Submit() error {
	for {
		d, inflight, err := c.attempt()
		if err == nil || c.opts.Replan == nil || errors.Is(err, errClosed) {
			return err
		}
		if rerr := c.heal(d); rerr != nil {
			return fmt.Errorf("runtime: %v; recovery failed: %w", err, rerr)
		}
		if inflight {
			c.requeued.Add(1)
		}
	}
}

// attempt runs one image on the serving deployment, holding the serving
// gate shared from before the deployment is loaded until the image's waiter
// has left. It returns that deployment, and whether the image got as far as
// its scatter (false: the deployment was refused as already failed).
func (c *Cluster) attempt() (d *deployment, inflight bool, err error) {
	c.gate.RLock()
	defer c.gate.RUnlock()
	d = c.dep.Load()
	select {
	case <-c.done:
		return d, false, errClosed
	default:
	}
	if _, err := d.cause(); err != nil {
		return d, false, fmt.Errorf("runtime: cluster already failed: %w", err)
	}
	img, w, err := c.admit(d)
	defer c.comp.release(img, w)
	if err != nil {
		return d, true, err
	}
	return d, true, c.await(d, img, w)
}

// admit registers the next image and scatters its input rows, serialised
// against every other submitter by sendInput. A failed scatter has already
// failed the deployment (sendInput attributes it to its destination); admit
// additionally completes the dead registration so the gc cursor keeps
// advancing, and returns the error. The waiter is the caller's to release
// either way.
func (c *Cluster) admit(d *deployment) (uint32, *waiter, error) {
	img, w := c.register(d)
	err := c.sendInput(d, img)
	if err != nil {
		c.complete(d, img)
	}
	return img, w, err
}

// await blocks until the admitted image's full result has arrived (nil),
// the per-image Options.Timeout fires, the deployment records a failure, or
// the cluster closes. On success the image is marked complete and provider
// assembly state below the gc cursor is collected. The waiter's timer is
// stopped again on return: since Go 1.23 a stopped timer delivers no stale
// tick, so the next image's Reset starts clean.
func (c *Cluster) await(d *deployment, img uint32, w *waiter) error {
	w.timer.Reset(c.opts.Timeout)
	defer w.timer.Stop()
	select {
	case <-w.done:
		c.complete(d, img)
		return nil
	case <-w.timer.C:
		err := fmt.Errorf("runtime: image %d timed out after %s", img, c.opts.Timeout)
		d.fail(-1, err)
		return err
	case <-d.failed:
		_, cause := d.cause()
		return fmt.Errorf("runtime: image %d aborted: %w", img, cause)
	case <-c.done:
		err := fmt.Errorf("%w during run", errClosed)
		d.fail(-1, err)
		return err
	}
}

// heal replaces the deployment `old`, on which the caller's attempt failed,
// with a recovered one. Callers queue on healMu; whoever still finds `old`
// serving takes the gate exclusively — every attempt on `old` has left or is
// leaving on its failed channel — and recovers, the rest return at once.
func (c *Cluster) heal(old *deployment) error {
	c.healMu.Lock()
	defer c.healMu.Unlock()
	if c.healErr != nil {
		return c.healErr
	}
	if c.dep.Load() != old {
		return nil // another caller already healed it
	}
	c.gate.Lock()
	defer c.gate.Unlock()
	select {
	case <-c.done:
		return errClosed
	default:
	}
	t0 := time.Now()
	err := c.recover(old)
	c.replanUS.Add(time.Since(t0).Microseconds())
	if err != nil {
		c.healErr = err
		return err
	}
	c.recoveries.Add(1)
	return nil
}

// Recovery returns the cluster's recovery accounting since Deploy:
// quarantine + re-plan + redeploy cycles, images re-scattered after one,
// total wall-clock milliseconds spent recovering (successful or not), and
// the providers removed from the fleet, in index order. A Serve result
// carries the recoveries and requeues of its own run.
func (c *Cluster) Recovery() (recoveries, requeued int, replanMS float64, quarantined []int) {
	for i, a := range c.dep.Load().alive {
		if !a {
			quarantined = append(quarantined, i)
		}
	}
	return int(c.recoveries.Load()), int(c.requeued.Load()), float64(c.replanUS.Load()) / 1e3, quarantined
}

// NumProviders returns the number of providers the cluster was deployed
// with, including quarantined ones.
func (c *Cluster) NumProviders() int { return len(c.dep.Load().providers) }

// Strategy returns the strategy the cluster is currently serving — after a
// recovery this is the re-planned one, not the strategy it was deployed
// with.
func (c *Cluster) Strategy() *strategy.Strategy { return c.dep.Load().strat }

// KillProvider simulates a crash of provider i: its listener and
// connections drop and its heartbeats stop, exactly as a powered-off
// device looks to the rest of the cluster. Chaos tests and the churn
// experiments use it to inject failures mid-run.
func (c *Cluster) KillProvider(i int) error {
	d := c.dep.Load()
	if i < 0 || i >= len(d.providers) {
		return fmt.Errorf("runtime: no provider %d", i)
	}
	if p := d.providers[i]; p != nil { // nil: already quarantined
		p.close()
	}
	return nil
}

// Close tears the cluster down. Closing done releases every waiter, so the
// gate is free as soon as they have left; taking it before the teardown
// means no recovery is running, and none that starts later publishes a
// deployment Close did not see.
func (c *Cluster) Close() {
	c.closed.Do(func() {
		close(c.done)
		if c.health != nil {
			c.health.close()
		}
		c.ln.Close()
		c.gate.Lock()
		d := c.dep.Load()
		c.gate.Unlock()
		d.close()
	})
}
