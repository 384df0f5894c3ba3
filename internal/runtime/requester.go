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
// Options.Recover — to survive providers dying under any caller.
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
	// per-destination sends inside one scatter stay concurrent, but
	// successive images enter the uplink one at a time, matching the
	// pipeline simulator's uplink busy floor no matter how many callers
	// (Serve's window of workers, gateway Submits) race to admit.
	sendMu sync.Mutex
	// Registration hot state is sharded by image id (reg) with the gc
	// cursor on its own mutex (wm), so concurrent Submit callers and
	// provider result fan-in stop serialising on one lock; see shards.go.
	reg     *regTable
	wm      *watermark
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
	providers []*Provider // indexed by provider index; nil = quarantined
	alive     []bool      // the liveness mask re-planning runs against

	linkMu sync.Mutex
	links  map[int]transport.Conn // guarded by linkMu; requester -> provider scatter links

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
		reg:  newRegTable(),
		wm:   newWatermark(),
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

// close tears the deployment down: scatter links, then every provider.
func (d *deployment) close() {
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
// healthy. With Options.Recover the next Submit heals the cluster and Err
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
				// Result payloads are bookkeeping-only: recycle them once
				// the pending set is updated below.
				transport.RecyclePayload(c.tr, ch.Payload)
				c.reg.shard(ch.Image).chunkArrived(ch.Image,
					chunkKey{int(ch.Volume), int(ch.Lo), int(ch.Hi)})
			}
		}()
	}
}

// register allocates the next image id and arms its completion tracking.
func (c *Cluster) register(plan *Plan) (uint32, chan struct{}) {
	done := make(chan struct{})
	img := c.nextImg.Add(1)
	m := make(map[chunkKey]bool, len(plan.Await))
	for _, a := range plan.Await {
		m[chunkKey{a.Volume, a.Lo, a.Hi}] = true
	}
	c.reg.shard(img).register(img, m, done)
	return img, done
}

// dropRegistration unwinds a registration whose input scatter failed: no
// result can ever arrive for the image, so its pending set and done channel
// are dropped and the image is marked completed so the gc watermark can
// advance past it — the mirror of recovery's drain, without which gcLow
// wedges below the dead id forever and provider assembly state above it is
// never collected again.
func (c *Cluster) dropRegistration(d *deployment, img uint32) {
	c.reg.shard(img).drop(img)
	c.complete(d, img)
}

// complete records a finished image and advances the gc watermark: provider
// assembly state is dropped only once every image at or below it has
// completed, so an early finisher never tears down state a straggler in the
// admission window still needs.
func (c *Cluster) complete(d *deployment, img uint32) {
	low := c.wm.complete(img)
	for _, p := range d.providers {
		if p != nil {
			p.gc(low)
		}
	}
}

// sendInput scatters one image's input rows to the volume-0 providers.
// Per-destination sends run concurrently — the single-image oracle's
// scatter model, and what per-pair connections really allow — while admit's
// sendMu keeps successive images' scatters ordered like the pipeline
// simulator's uplink busy floor. A failed scatter is attributed to its
// destination provider so recovery can quarantine it.
func (c *Cluster) sendInput(d *deployment, img uint32) error {
	plan := d.plan
	var wg sync.WaitGroup
	var mu sync.Mutex
	firstErr, firstDest := error(nil), -1
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
		wg.Add(1)
		go func(dest int, ch Chunk) {
			defer wg.Done()
			o, err := d.link(c.tr, dest)
			if err == nil {
				err = o.Send(ch)
			}
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr, firstDest = err, dest
				}
				mu.Unlock()
			}
		}(dest, ch)
	}
	wg.Wait()
	if firstErr != nil {
		err := fmt.Errorf("runtime: scatter image %d to provider %d: %w", img, firstDest, firstErr)
		d.fail(firstDest, err)
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
// Without Options.Recover a failure — the per-image timeout, a dead peer,
// missed heartbeats — is sticky (see Err) and surfaces from every in-flight
// and subsequent Submit. With it, a caller whose attempt failed heals the
// cluster (or finds it already healed by another caller) and re-scatters its
// own image on the new deployment, so the call returns nil across a provider
// death and an error only when recovery itself failed, which is final.
func (c *Cluster) Submit() error {
	for {
		d, inflight, err := c.attempt()
		if err == nil || !c.opts.Recover || errors.Is(err, errClosed) {
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
	img, done, err := c.admit(d)
	if err != nil {
		return d, true, err
	}
	return d, true, c.await(d, img, done)
}

// admit registers the next image and scatters its input rows, serialised
// against every other submitter by sendMu. A failed scatter has already
// failed the deployment (sendInput attributes it to its destination); admit
// additionally drops the dead registration so the gc watermark keeps
// advancing, and returns the error.
func (c *Cluster) admit(d *deployment) (uint32, chan struct{}, error) {
	img, done := c.register(d.plan)
	c.sendMu.Lock()
	err := c.sendInput(d, img)
	c.sendMu.Unlock()
	if err != nil {
		c.dropRegistration(d, img)
		return 0, nil, err
	}
	return img, done, nil
}

// await blocks until the admitted image's full result has arrived (nil),
// the per-image Options.Timeout fires, the deployment records a failure, or
// the cluster closes. On success the image is marked complete and provider
// assembly state below the watermark is collected.
func (c *Cluster) await(d *deployment, img uint32, done <-chan struct{}) error {
	timer := time.NewTimer(c.opts.Timeout)
	defer timer.Stop()
	select {
	case <-done:
		c.complete(d, img)
		return nil
	case <-timer.C:
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
