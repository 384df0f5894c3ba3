// Package sim simulates the distributed execution of a CNN inference
// strategy on a set of service providers, reproducing the dataflow of the
// paper's testbed (Section V-A): the requester scatters input rows to the
// providers of the first layer-volume; between volumes, providers exchange
// exactly the (halo-overlapped) rows the VSL says they need; fully-connected
// layers run on the provider holding the largest share of the last volume;
// results return to the requester.
//
// The simulator is the environment OSDS trains against (states, i.e.
// accumulated latencies, are exposed incrementally via Exec) and the
// instrument every experiment harness measures with (end-to-end latency,
// streaming IPS, per-device compute/transmission breakdown for Fig. 15).
//
// Two execution paths exist. Latency, Stream, Timeline and Serve compile
// the strategy once (Compile) and replay the plan per image through one
// function (CompiledPlan.replay) with all time-invariant work — geometry,
// halo overlaps, payload sizes, device compute latencies — precomputed and
// all buffers reused; only the time-varying network transfers are
// evaluated per image. ReferenceLatency retains the original
// per-image derivation as the differential-testing oracle; both paths
// produce bit-identical results (see sim_equivalence_test.go).
package sim

import (
	"fmt"
	"sync"

	"distredge/internal/cnn"
	"distredge/internal/device"
	"distredge/internal/network"
	"distredge/internal/strategy"
)

// Env binds a model to concrete providers and a network. Devices are the
// latency models executing the strategy: ground-truth device.Profile values
// when the env plays the role of the hardware, or profile forms
// (table/linear/piecewise/k-NN) when it plays the role of the controller's
// view during planning — the paper's Section IV allows both ("the latencies
// can be directly measured with real execution on devices or estimated by
// the profiling results").
type Env struct {
	Model   *cnn.Model
	Devices []device.LatencyModel
	Net     *network.Network

	mu       sync.Mutex
	devCache *device.Cache                        // guarded by mu
	plans    map[*strategy.Strategy]*CompiledPlan // guarded by mu
}

// WithDevices returns a copy of the environment whose devices are replaced
// by the given latency models (e.g. measured profiles for planning). The
// copy starts with fresh latency caches.
func (e *Env) WithDevices(models []device.LatencyModel) *Env {
	return &Env{Model: e.Model, Devices: models, Net: e.Net}
}

// NumProviders returns the number of service providers in the environment.
func (e *Env) NumProviders() int { return len(e.Devices) }

// VolumeLatency returns the compute latency of provider i producing output
// rows `out` of the layer-volume, memoized per (provider, volume, range) —
// the hot lookup of both OSDS training and plan compilation.
func (e *Env) VolumeLatency(i int, layers []cnn.Layer, out cnn.RowRange) float64 {
	e.mu.Lock()
	c := e.devCache
	if c == nil {
		c = device.NewCache()
		e.devCache = c
	}
	e.mu.Unlock()
	return c.VolumeLatency(i, e.Devices[i], layers, out)
}

// CacheStats returns the hit/miss counters of the device-latency cache.
func (e *Env) CacheStats() device.CacheStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.devCache == nil {
		return device.CacheStats{}
	}
	return e.devCache.Stats()
}

// checkoutPlan returns a compiled plan for the strategy, reusing the memoized
// one when the strategy contents are unchanged and recompiling it in place
// when they are not. A strategy the memo does not hold takes an idle plan of
// another strategy and recompiles it in place, so ranking a fresh candidate
// allocates only what its geometry needs beyond that plan's buffers; only an
// empty memo compiles a new plan. The plan is removed from the memo while in
// use so concurrent callers never share scratch buffers.
func (e *Env) checkoutPlan(s *strategy.Strategy) (*CompiledPlan, error) {
	e.mu.Lock()
	p := e.plans[s]
	if p == nil {
		for _, idle := range e.plans {
			p = idle
			break
		}
	}
	if p != nil {
		delete(e.plans, p.strat)
	}
	e.mu.Unlock()
	switch {
	case p == nil:
		return Compile(e, s)
	case p.strat == s && p.matches(s):
		return p, nil
	}
	if err := p.compile(s); err != nil {
		return nil, err
	}
	return p, nil
}

// checkinPlan returns a plan to the memo for reuse.
func (e *Env) checkinPlan(p *CompiledPlan) {
	e.mu.Lock()
	if e.plans == nil {
		e.plans = make(map[*strategy.Strategy]*CompiledPlan)
	}
	if len(e.plans) >= 64 { // bound memory across many short-lived strategies
		clear(e.plans)
	}
	e.plans[p.strat] = p
	e.mu.Unlock()
}

// Breakdown is the per-image latency decomposition used by Fig. 15.
type Breakdown struct {
	PerDevComp  []float64 // total compute seconds per device
	PerDevTrans []float64 // total receive-side transmission seconds per device
}

// MaxComp returns the maximum per-device computing latency.
func (b Breakdown) MaxComp() float64 { return maxOf(b.PerDevComp) }

// MaxTrans returns the maximum per-device transmission latency.
func (b Breakdown) MaxTrans() float64 { return maxOf(b.PerDevTrans) }

func (b Breakdown) clone() Breakdown {
	return Breakdown{
		PerDevComp:  append([]float64(nil), b.PerDevComp...),
		PerDevTrans: append([]float64(nil), b.PerDevTrans...),
	}
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Exec is the incremental execution of one image under a fixed partition
// scheme: volumes are split one at a time via Step, exposing the
// accumulated latencies that form the OSDS state (Eq. 7). An Exec owns its
// buffers and is reusable: Reset re-arms it for the next image without
// allocating, which is how OSDS training amortises the per-episode cost.
//
// Exec derives halo overlaps and the FC owner itself instead of reading a
// strategy.Geometry, and is the only executor that does: OSDS prices volume
// v before the cuts of volume v+1 exist, so there is no whole strategy to
// compile, and ReferenceLatency is built on it to be the independent oracle
// the compiled path is tested against.
type Exec struct {
	env        *Env
	boundaries []int
	at         float64 // absolute trace time of the image start

	vol       int            // next volume to split
	acc       []float64      // accumulated latency per provider (Eq. 7 state)
	accNext   []float64      // next-volume accumulator (double buffer)
	busy      []float64      // time each provider becomes free
	owner     []cnn.RowRange // rows of the previous volume's output held per provider
	ownerNext []cnn.RowRange
	bd        Breakdown
	err       error
}

// NewExec starts the execution of one image at absolute time `at` under the
// given partition scheme.
func NewExec(env *Env, boundaries []int, at float64) *Exec {
	x := &Exec{}
	x.ResetEnv(env, boundaries, at)
	return x
}

// ResetEnv is Reset on another environment: it re-targets the exec at env,
// sizing its buffers for env's provider count and reusing their storage,
// so an exec outlives the env it was built for.
func (x *Exec) ResetEnv(env *Env, boundaries []int, at float64) {
	n := env.NumProviders()
	x.env = env
	x.acc, x.accNext, x.busy = resize(x.acc, n), resize(x.accNext, n), resize(x.busy, n)
	x.owner, x.ownerNext = resize(x.owner, n), resize(x.ownerNext, n)
	x.bd.PerDevComp, x.bd.PerDevTrans = resize(x.bd.PerDevComp, n), resize(x.bd.PerDevTrans, n)
	x.Reset(boundaries, at)
}

// Reset re-arms the exec for a new image starting at absolute time `at`
// under the given partition scheme, reusing all internal buffers. The
// Breakdown returned by a previous Finish is invalidated.
func (x *Exec) Reset(boundaries []int, at float64) {
	x.boundaries = boundaries
	x.at = at
	x.vol = 0
	x.err = nil
	for i := range x.acc {
		x.acc[i] = 0
		x.busy[i] = 0
		x.bd.PerDevComp[i] = 0
		x.bd.PerDevTrans[i] = 0
	}
}

// NumVolumes returns the number of volumes in the partition scheme.
func (x *Exec) NumVolumes() int { return len(x.boundaries) - 1 }

// Done reports whether all volumes have been split.
func (x *Exec) Done() bool { return x.vol >= x.NumVolumes() }

// Err returns the first execution error, if any.
func (x *Exec) Err() error { return x.err }

// Accumulated returns the per-provider accumulated latencies after the last
// completed volume (the T^{l-1} component of the OSDS state). The slice
// aliases the exec's double buffer and is valid until the next Step or
// Reset; copy it to retain a snapshot.
func (x *Exec) Accumulated() []float64 { return x.acc }

// Step splits the next volume with the given cut points and advances the
// execution. Cut points follow strategy.CutRange semantics.
func (x *Exec) Step(cuts []int) {
	if x.err != nil || x.Done() {
		return
	}
	layers := strategy.Volume(x.env.Model, x.boundaries, x.vol)
	h := layers[len(layers)-1].OutHeight()
	n := x.env.NumProviders()
	if len(cuts) != n-1 {
		x.err = fmt.Errorf("sim: volume %d: %d cuts for %d providers", x.vol, len(cuts), n)
		return
	}

	copy(x.accNext, x.acc)
	for i := 0; i < n; i++ {
		part := strategy.CutRange(cuts, h, i)
		x.ownerNext[i] = part
		if part.Empty() {
			continue
		}
		in := cnn.VolumeInputRows(layers, part)
		arrive := x.gather(i, in, layers[0].InRowBytes())
		start := arrive
		if x.busy[i] > start {
			start = x.busy[i]
		}
		comp := x.env.VolumeLatency(i, layers, part)
		finish := start + comp
		x.bd.PerDevComp[i] += comp
		x.busy[i] = finish
		x.accNext[i] = finish
	}
	x.acc, x.accNext = x.accNext, x.acc
	x.owner, x.ownerNext = x.ownerNext, x.owner
	x.vol++
}

// gather computes when provider i has received input rows `in`, pulling
// overlapping rows from every current owner (or the requester before volume
// 0). Rows the provider already owns arrive as soon as it computed them.
func (x *Exec) gather(i int, in cnn.RowRange, rowBytes float64) float64 {
	if in.Empty() {
		return 0
	}
	if x.vol == 0 {
		// Requester scatters the input image rows. Within one image the
		// scatter transfers are idealised as concurrent (the oracle model
		// the whole evaluation is calibrated on); Serve adds the
		// uplink serialisation that matters once images overlap.
		bytes := float64(in.Len()) * rowBytes
		tr := x.env.Net.TransferLatency(network.Requester, i, bytes, x.at)
		x.bd.PerDevTrans[i] += tr
		return tr
	}
	var arrive float64
	for j, own := range x.owner {
		ov := in.Intersect(own)
		if ov.Empty() {
			continue
		}
		t := x.acc[j]
		if j != i {
			bytes := float64(ov.Len()) * rowBytes
			tr := x.env.Net.TransferLatency(j, i, bytes, x.at+t)
			x.bd.PerDevTrans[i] += tr
			t += tr
		}
		if t > arrive {
			arrive = t
		}
	}
	return arrive
}

// Finish completes the image: gathers the last volume's output (to the FC
// owner if the model has FC layers, else directly to the requester),
// computes any FC layers, and returns the result to the requester. It
// returns the end-to-end latency of the image. The Breakdown aliases the
// exec's buffers and is valid until the next Reset.
func (x *Exec) Finish() (float64, Breakdown, error) {
	if x.err != nil {
		return 0, x.bd, x.err
	}
	if !x.Done() {
		return 0, x.bd, fmt.Errorf("sim: Finish called with %d volumes remaining", x.NumVolumes()-x.vol)
	}
	convLayers := x.env.Model.SplittableLayers()
	last := convLayers[len(convLayers)-1]
	rowBytes := last.OutRowBytes()
	fcs := x.env.Model.FCLayers()

	if len(fcs) == 0 {
		// Fully-convolutional model: each provider returns its rows.
		var end float64
		for j, own := range x.owner {
			if own.Empty() {
				continue
			}
			t := x.acc[j] + x.env.Net.TransferLatency(j, network.Requester, float64(own.Len())*rowBytes, x.at+x.acc[j])
			if t > end {
				end = t
			}
		}
		return end, x.bd, nil
	}

	// FC owner: provider with the largest share of the last volume
	// (Section V-A).
	ownerIdx, best := 0, -1
	for j, own := range x.owner {
		if own.Len() > best {
			best = own.Len()
			ownerIdx = j
		}
	}
	// Gather the full feature map at the owner.
	ready := x.acc[ownerIdx]
	for j, own := range x.owner {
		if j == ownerIdx || own.Empty() {
			continue
		}
		bytes := float64(own.Len()) * rowBytes
		tr := x.env.Net.TransferLatency(j, ownerIdx, bytes, x.at+x.acc[j])
		x.bd.PerDevTrans[ownerIdx] += tr
		if t := x.acc[j] + tr; t > ready {
			ready = t
		}
	}
	// FC compute on the owner.
	var fcLat float64
	for _, fc := range fcs {
		fcLat += x.env.Devices[ownerIdx].ComputeLatency(fc, 1)
	}
	x.bd.PerDevComp[ownerIdx] += fcLat
	done := ready + fcLat
	// Result back to the requester.
	result := fcs[len(fcs)-1].OutputBytes()
	end := done + x.env.Net.TransferLatency(ownerIdx, network.Requester, result, x.at+done)
	return end, x.bd, nil
}

// Latency runs a full strategy for one image starting at absolute time `at`
// and returns the end-to-end latency and breakdown. The strategy is
// compiled on first use and the plan is memoized on the environment, so
// repeated evaluations of the same strategy are allocation-free apart from
// the returned Breakdown.
func (e *Env) Latency(s *strategy.Strategy, at float64) (float64, Breakdown, error) {
	p, err := e.checkoutPlan(s)
	if err != nil {
		return 0, Breakdown{}, err
	}
	lat, bd := p.run(at)
	out := bd.clone()
	e.checkinPlan(p)
	return lat, out, nil
}

// ReferenceLatency is the original per-image execution path: it validates
// the strategy and re-derives all geometry for every call. It is retained
// as the differential-testing oracle for the compiled path — both produce
// bit-identical results.
func (e *Env) ReferenceLatency(s *strategy.Strategy, at float64) (float64, Breakdown, error) {
	if err := s.Validate(e.Model, e.NumProviders()); err != nil {
		return 0, Breakdown{}, err
	}
	x := NewExec(e, s.Boundaries, at)
	for v := 0; v < s.NumVolumes(); v++ {
		x.Step(s.Splits[v])
	}
	lat, bd, err := x.Finish()
	return lat, bd, err
}

// StreamResult summarises a streaming evaluation (Section V-A: images are
// sent one at a time, each waiting for the previous result).
type StreamResult struct {
	Images    int
	TotalSec  float64
	IPS       float64
	MeanLatMS float64
	Breakdown Breakdown // of the final image
}

// Stream evaluates the strategy over a stream of `images` images starting
// at trace time `start`, returning the averaged images-per-second — the
// paper's headline metric.
//
// The strategy is validated and compiled once (not once per image), and on
// time-invariant networks the stream short-circuits: as soon as the
// per-image latency reaches steady state (two consecutive images with
// identical latency — on a constant network that is image two), the
// remaining images are extrapolated with the same accumulation the full
// loop would perform, so the result stays bit-identical while the cost
// drops from O(images) simulations to O(1).
func (e *Env) Stream(s *strategy.Strategy, images int, start float64) (StreamResult, error) {
	if images <= 0 {
		return StreamResult{}, fmt.Errorf("sim: need at least 1 image")
	}
	p, err := e.checkoutPlan(s)
	if err != nil {
		return StreamResult{}, err
	}
	invariant := e.Net.TimeInvariant()
	t := start
	var lastBD Breakdown
	prevLat := -1.0
	for i := 0; i < images; i++ {
		lat, bd := p.run(t)
		t += lat
		lastBD = bd
		if invariant && lat == prevLat {
			// Steady state: images do not overlap, so with a
			// time-invariant network every remaining image repeats this
			// latency and breakdown exactly.
			for k := i + 1; k < images; k++ {
				t += lat
			}
			break
		}
		prevLat = lat
	}
	out := lastBD.clone()
	e.checkinPlan(p)
	total := t - start
	return StreamResult{
		Images:    images,
		TotalSec:  total,
		IPS:       float64(images) / total,
		MeanLatMS: total / float64(images) * 1e3,
		Breakdown: out,
	}, nil
}
