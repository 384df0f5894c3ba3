package sim

import (
	"slices"

	"distredge/internal/network"
	"distredge/internal/strategy"
)

// gatherSrc is one precompiled transfer source: provider j sends `bytes`
// payload bytes over directed link li (0 bytes and no link when the rows
// are already local, j == receiver).
type gatherSrc struct {
	j, li int
	bytes float64
}

// linkIdx maps a directed (from, to) pair among n providers
// (network.Requester = -1 allowed on either side) to a flat index.
func linkIdx(n, from, to int) int {
	return (from+1)*(n+1) + (to + 1)
}

// compiledPart is everything provider i needs to replay one volume of the
// plan: the precomputed compute latency, the scatter payload (volume 0) or
// the halo-overlap sources (later volumes).
type compiledPart struct {
	active   bool    // part is non-empty
	hasIn    bool    // halo input is non-empty
	comp     float64 // device compute seconds (precomputed, time-invariant)
	scatterB float64 // volume 0: bytes scattered by the requester
	srcs     []gatherSrc
}

type compiledVolume struct {
	parts []compiledPart
}

// CompiledPlan is a strategy bound to an environment with every
// time-invariant quantity of the simulation precomputed: volume geometry,
// halo overlaps and payload sizes, per-(provider, volume) compute
// latencies, the FC-owner index and FC cost. Replaying the plan for one
// image (replay) evaluates only the time-varying network transfers and
// reuses all buffers, so it allocates nothing.
//
// A CompiledPlan is not safe for concurrent use; Env.checkoutPlan manages
// exclusive checkout of memoized plans, and recompiles a checked-out plan
// in place when its strategy was rewritten since (compile).
type CompiledPlan struct {
	env   *Env
	strat *strategy.Strategy

	// Fingerprint copies guarding against in-place strategy mutation.
	boundaries []int
	splits     [][]int

	geo  strategy.Geometry // the strategy's geometry, recompiled in place
	vols []compiledVolume

	// Finish phase. fcOwner is -1 for fully-convolutional models, where
	// finish holds each provider's result-return transfer; otherwise it is
	// the FC owner and finish holds the gather-to-owner transfers.
	fcOwner     int
	fcLat       float64
	resultBytes float64
	resultLink  int // fcOwner -> requester
	finish      []gatherSrc

	// links lists, ascending and once each, the directed links the plan's
	// transfers use: the only entries of pipeState's per-link state a replay
	// reads or writes.
	links []int

	// Backing arrays of splits, the volumes' parts and the parts' sources,
	// kept for recompiling.
	cutBuf  []int
	partBuf []compiledPart
	srcBuf  []gatherSrc

	// Per-image scratch.
	acc, accNext, busy []float64
	bdComp, bdTrans    []float64
	idle               pipeState // the all-free state of single-image replays
	pipe               *serving  // the objectives' pipelined runs (Env.pipeline), made on first use
}

// Compile validates the strategy against the environment and precomputes
// the execution plan. The compiled plan replays the exact computation of
// ReferenceLatency — float operations in the same order on the same
// values — so results are bit-identical.
func Compile(e *Env, s *strategy.Strategy) (*CompiledPlan, error) {
	p := &CompiledPlan{env: e}
	if err := p.compile(s); err != nil {
		return nil, err
	}
	return p, nil
}

// compile (re)builds the plan for s in place, reusing every buffer the plan
// already has, its geometry's included. The OSDS trainer rewrites one
// strategy's cuts every episode, so recompiling into a plan that has held
// a strategy of the same shape allocates nothing. A strategy that fails
// validation leaves the plan as it was.
func (p *CompiledPlan) compile(s *strategy.Strategy) error {
	e := p.env
	n := e.NumProviders()
	if err := strategy.CompileGeometryInto(&p.geo, e.Model, s, n); err != nil {
		return err
	}
	geo := &p.geo
	if p.acc == nil {
		scratch := make([]float64, 5*n)
		p.acc = scratch[:n:n]
		p.accNext = scratch[n : 2*n : 2*n]
		p.busy = scratch[2*n : 3*n : 3*n]
		p.bdComp = scratch[3*n : 4*n : 4*n]
		p.bdTrans = scratch[4*n : 5*n : 5*n]
	}
	p.strat = s
	p.boundaries = append(p.boundaries[:0], s.Boundaries...)
	cuts := 0
	for _, c := range s.Splits {
		cuts += len(c)
	}
	p.cutBuf = resize(p.cutBuf, cuts)
	p.splits = resize(p.splits, len(s.Splits))
	buf := p.cutBuf
	for v, c := range s.Splits {
		p.splits[v], buf = buf[:len(c):len(c)], buf[len(c):]
		copy(p.splits[v], c)
	}

	sources := 0
	for _, g := range geo.Volumes {
		for _, src := range g.Sources {
			sources += len(src)
		}
	}
	p.vols = resize(p.vols, len(geo.Volumes))
	p.partBuf = resize(p.partBuf, n*len(geo.Volumes))
	p.srcBuf = resize(p.srcBuf, sources)
	if cap(p.links) < sources+n+1 { // every transfer's link, before deduplication
		p.links = make([]int, 0, sources+n+1)
	}
	parts, srcs, links := p.partBuf, p.srcBuf, p.links[:0]
	for v, g := range geo.Volumes {
		cv := &p.vols[v]
		cv.parts, parts = parts[:n:n], parts[n:]
		for i, part := range g.Parts {
			if part.Empty() {
				continue
			}
			in := g.Inputs[i]
			k := len(g.Sources[i])
			cp := compiledPart{
				active: true,
				hasIn:  !in.Empty(),
				comp:   e.VolumeLatency(i, g.Layers, part),
				srcs:   srcs[:k:k],
			}
			srcs = srcs[k:]
			if v == 0 {
				cp.scatterB = float64(in.Len()) * g.InRowBytes
			}
			for k, src := range g.Sources[i] {
				cp.srcs[k].j = src.From
				if src.From != i {
					cp.srcs[k].li = linkIdx(n, src.From, i)
					cp.srcs[k].bytes = float64(src.Rows.Len()) * g.InRowBytes
					links = append(links, cp.srcs[k].li)
				}
			}
			cv.parts[i] = cp
		}
	}

	// Finish phase: every non-empty last part travels to the FC owner (its
	// own stays put) or, without FC layers, straight to the requester.
	last := geo.Volumes[len(geo.Volumes)-1]
	p.fcOwner = geo.FCOwner
	p.resultBytes = geo.ResultBytes
	p.fcLat, p.resultLink = 0, 0
	for _, fc := range geo.FCLayers {
		p.fcLat += e.Devices[p.fcOwner].ComputeLatency(fc, 1)
	}
	to := network.Requester
	if p.fcOwner >= 0 {
		to = p.fcOwner
		p.resultLink = linkIdx(n, p.fcOwner, network.Requester)
		links = append(links, p.resultLink)
	}
	if p.finish == nil {
		p.finish = make([]gatherSrc, 0, n)
	}
	p.finish = p.finish[:0]
	for j, own := range last.Parts {
		if j != p.fcOwner && !own.Empty() {
			f := gatherSrc{j: j, li: linkIdx(n, j, to), bytes: float64(own.Len()) * last.OutRowBytes}
			p.finish = append(p.finish, f)
			links = append(links, f.li)
		}
	}
	slices.Sort(links)
	p.links = slices.Compact(links)
	return nil
}

// resize returns s resliced to n zeroed elements, or a new slice when s is
// too short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// matches reports whether the strategy's current contents equal the ones
// the plan was compiled from.
func (p *CompiledPlan) matches(s *strategy.Strategy) bool {
	if len(s.Boundaries) != len(p.boundaries) || len(s.Splits) != len(p.splits) {
		return false
	}
	for i, b := range s.Boundaries {
		if p.boundaries[i] != b {
			return false
		}
	}
	for v, cuts := range s.Splits {
		if len(cuts) != len(p.splits[v]) {
			return false
		}
		for i, c := range cuts {
			if p.splits[v][i] != c {
				return false
			}
		}
	}
	return true
}

// idleState returns the plan's all-free state, the one every single-image
// replay runs on. It is sized on first use, so Compile allocates nothing for
// it, and reset on every later one.
func (p *CompiledPlan) idleState() *pipeState {
	if p.idle.devFree == nil {
		p.idle.init(len(p.acc), len(p.vols), 1, 1)
	} else {
		p.idle.reset(p.links)
	}
	return &p.idle
}

// run replays the plan for one image on an idle fleet. The returned
// Breakdown aliases the plan's scratch buffers and is valid until the next
// replay.
func (p *CompiledPlan) run(at float64) (float64, Breakdown) {
	end := p.replay(at, p.idleState(), nil)
	return end, Breakdown{PerDevComp: p.bdComp, PerDevTrans: p.bdTrans}
}
