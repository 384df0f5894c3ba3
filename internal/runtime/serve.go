package runtime

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"distredge/internal/admit"
	"distredge/internal/gateway"
	"distredge/internal/sim"
)

// Serve runs the scenario on the deployed fleet and reports it as sim.Serve
// predicts it, assembled by the same sim.ServeResult.Assemble, in model
// time: wall-clock seconds from the start ÷ Options.TimeScale. One tenant
// without a policy or a window of its own is a window of Submit workers
// (Window 1 is the paper's protocol); anything else goes through
// internal/gateway with every backlog enqueued at the start. Each DeviceDrop kills its provider
// at wall offset At × TimeScale. check says what is refused before any
// image is admitted; WireFrac, ReplanSec and the Replan function model what
// the transport and Options.Replan do for real, and are ignored — only
// whether Replan is set must match the deployment.
//
// The first Submit error ends admission: the images lost count as Failed,
// FailedAtSec is when it happened, and the error comes with the result.
// Without Options.Replan failure is sticky and the error is the cluster's
// first; with it only a failed recovery ends the run.
func (c *Cluster) Serve(sc sim.Scenario) (sim.ServeResult, error) {
	policy, images, err := c.check(&sc)
	if err != nil {
		return sim.ServeResult{}, err
	}
	res := sim.ServeResult{
		PipelineResult: sim.PipelineResult{Images: images, Window: sc.Window, Batch: c.opts.Batch},
		Policy:         policy,
		Tenants:        make([]sim.TenantResult, len(sc.Tenants)),
	}
	cfgs := make([]gateway.TenantConfig, len(sc.Tenants))
	for t, ts := range sc.Tenants {
		if res.Tenants[t].Name = ts.Name; ts.Name == "" {
			res.Tenants[t].Name = fmt.Sprintf("tenant%d", t)
		}
		cfgs[t] = gateway.TenantConfig{Name: res.Tenants[t].Name, Weight: ts.Weight, Window: ts.Window}
	}
	r := &serveRun{c: c, lat: make([]float64, images), done: make([]float64, images), failedAt: -1}
	var g *gateway.Gateway
	if len(sc.Tenants) > 1 || sc.Policy != "" || sc.Tenants[0].Window > 0 {
		if g, err = gateway.New(r, gateway.Config{Window: sc.Window, Policy: policy}, cfgs); err != nil {
			return sim.ServeResult{}, fmt.Errorf("runtime: %w", err)
		}
	}

	rec0, req0, _, _ := c.Recovery()
	r.start = time.Now()
	for _, ev := range sc.Events {
		after, _ := wallOffset(ev.At, c.opts.TimeScale)
		defer time.AfterFunc(after, func() { r.drop(ev) }).Stop()
	}
	if g != nil {
		r.gateway(g, sc.Tenants, res.Tenants)
	} else {
		r.window(images, sc.Window)
	}
	r.mu.Lock()
	r.ended = true
	runErr := r.err
	res.FailedAtSec, res.EventRecoverySec = r.failedAt, r.applied
	r.mu.Unlock()

	rec1, req1, _, _ := c.Recovery()
	res.Recoveries, res.Requeued = rec1-rec0, req1-req0
	admitted := int(r.next.Load())
	if g == nil { // enqueued at the start, so enqueue to completion is the completion time
		for _, d := range r.done[:admitted] {
			if !math.IsInf(d, 1) {
				res.Tenants[0].PerImageSec = append(res.Tenants[0].PerImageSec, d)
			}
		}
	}
	var scratch []float64
	res.Assemble(0, r.lat[:admitted], r.done[:admitted], &scratch)
	if err := c.Err(); runErr != nil && err != nil && c.opts.Replan == nil {
		runErr = err // sticky: report the first error, as Err will from now on
	}
	return res, runErr
}

// check refuses what the deployment cannot run as scripted and returns the
// admission policy and the image count. The refusals: a tenant without
// images or enqueued after 0, a nonzero Start, a Batch other than the
// deployed Options', a Replan set on one side only, any event but a drop
// of a device in the fleet at a time that scales to a wall-clock offset,
// and a sticky failed cluster.
func (c *Cluster) check(sc *sim.Scenario) (string, int, error) {
	sched, err := admit.New(sc.Policy, sc.Window)
	images, n := 0, c.NumProviders()
	for _, ts := range sc.Tenants {
		if ts.Images < 1 || ts.EnqueueSec != 0 {
			err = fmt.Errorf("tenant %q enqueues %d images at %g, want at least one at 0", ts.Name, ts.Images, ts.EnqueueSec)
		}
		images += ts.Images
	}
	for _, ev := range sc.Events {
		if _, ok := wallOffset(ev.At, c.opts.TimeScale); !ok || ev.Kind != sim.DeviceDrop || ev.Device < 0 || ev.Device >= n {
			err = fmt.Errorf("cannot run %s of device %d at %g, only drops of devices in [0,%d) at wall-clock offsets", ev.Kind, ev.Device, ev.At, n)
		}
	}
	switch {
	case err != nil:
	case images == 0:
		err = errors.New("need at least one tenant")
	case sc.Start != 0:
		err = fmt.Errorf("a run starts at 0, not at %g", sc.Start)
	case !(sc.Batch == c.opts.Batch || sc.Batch < 0 && c.opts.Batch == 1) || (sc.Replan != nil) != (c.opts.Replan != nil): // a negative Batch is 1, off
		err = fmt.Errorf("scenario has Batch %d, Replan set %v; the cluster is deployed with %d, %v", sc.Batch, sc.Replan != nil, c.opts.Batch, c.opts.Replan != nil)
	case c.Err() != nil && c.opts.Replan == nil:
		err = fmt.Errorf("cluster already failed: %w", c.Err())
	}
	if err != nil {
		return "", 0, fmt.Errorf("runtime: %w", err)
	}
	return sched.Policy(), images, nil
}

// wallOffset converts a model time to its wall-clock offset, not ok when
// NaN, negative or past time.Duration: converted, that would fire at once.
func wallOffset(at, timeScale float64) (time.Duration, bool) {
	ns := at * timeScale * float64(time.Second)
	return time.Duration(ns), ns >= 0 && ns < math.MaxInt64
}

// serveRun is one Serve run's record. Slot k is the run's k-th Submit, so
// the slots are in first-admission order, as sim.Serve numbers its images.
type serveRun struct {
	c     *Cluster
	start time.Time
	next  atomic.Int64 // slots claimed
	lat   []float64    // per slot, model seconds from admission to completion
	done  []float64    // per slot, model seconds from the start to completion; +Inf if lost

	mu       sync.Mutex
	err      error     // guarded by mu; the run's first Submit error
	failedAt float64   // guarded by mu; when err happened, model seconds; -1 before
	ended    bool      // guarded by mu; admission is over, drops no longer fire
	applied  []float64 // guarded by mu; with a Replan, the times of the drops that fired
}

// Submit runs and records one image: the window's workers call it, and it
// is the gateway's Backend.
func (r *serveRun) Submit() error {
	k := r.next.Add(1) - 1
	t0 := time.Now()
	err := r.c.Submit()
	t1 := time.Now()
	r.lat[k], r.done[k] = t1.Sub(t0).Seconds()/r.c.opts.TimeScale, t1.Sub(r.start).Seconds()/r.c.opts.TimeScale
	if err != nil {
		r.mu.Lock()
		if r.err == nil {
			r.err, r.failedAt = err, r.done[k]
		}
		r.mu.Unlock()
		r.done[k] = math.Inf(1)
	}
	return err
}

// window runs images through min(window, images) workers; the first error
// stops admission.
func (r *serveRun) window(images, window int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(window, images); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(images) {
				if r.Submit() != nil {
					next.Store(int64(images))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// gateway enqueues every tenant's backlog at once, collects each tenant's
// completed latencies into out (model seconds from enqueue, in enqueue
// order, which per tenant is admission order) and closes g.
func (r *serveRun) gateway(g *gateway.Gateway, tenants []sim.TenantSpec, out []sim.TenantResult) {
	defer g.Close()
	chs := make([][]<-chan gateway.Result, len(tenants))
	for t, ts := range tenants {
		for range ts.Images {
			if ch, err := g.Enqueue(out[t].Name); err == nil { // else never admitted: lost
				chs[t] = append(chs[t], ch)
			}
		}
	}
	for t := range chs {
		for _, ch := range chs[t] {
			if res := <-ch; res.Err == nil {
				out[t].PerImageSec = append(out[t].PerImageSec, res.LatencyMS/1e3/r.c.opts.TimeScale)
			}
		}
	}
}

// drop kills the event's device unless admission is already over.
func (r *serveRun) drop(ev sim.ChurnEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.ended && r.c.KillProvider(ev.Device) == nil && r.c.opts.Replan != nil {
		r.applied = append(r.applied, ev.At)
	}
}
