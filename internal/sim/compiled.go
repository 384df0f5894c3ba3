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
	// reads or writes. linkUsed, indexed by link, is collectLinks' set, all
	// false between calls.
	links    []int
	linkUsed []bool

	// Backing arrays of splits, the volumes' parts and the parts' sources,
	// kept for recompiling. Over n providers volume v's cuts are
	// cutBuf[(n-1)v:], its parts partBuf[nv:], and part i's sources the
	// n-slot region srcBuf[(nv+i)n:], so a volume is rebuilt without
	// moving any other.
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
//
// A plan compiled before for the same volume boundaries (its fingerprint
// says so) is rebuilt only where the cuts moved, as its geometry is (see
// strategy.CompileGeometryInto): the compute latency and scatter payload of
// each part whose cuts differ from the fingerprint's, the transfer sources
// of each volume with a moved part and of the volume after it, and the
// finish phase. Every other plan is rebuilt whole, by the same loop over
// every volume. Either way every field ends as a fresh Compile sets it.
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
	numVols := len(geo.Volumes)
	whole := len(p.vols) != numVols || !slices.Equal(p.boundaries, s.Boundaries)
	if whole {
		p.boundaries = append(p.boundaries[:0], s.Boundaries...)
		p.cutBuf = resize(p.cutBuf, (n-1)*numVols)
		p.splits = resize(p.splits, numVols)
		p.vols = resize(p.vols, numVols)
		p.partBuf = resize(p.partBuf, n*numVols)
		p.srcBuf = resize(p.srcBuf, n*n*numVols)
		for v := range p.vols {
			p.splits[v] = p.cutBuf[(n-1)*v : (n-1)*(v+1) : (n-1)*(v+1)]
			p.vols[v].parts = p.partBuf[n*v : n*(v+1) : n*(v+1)]
		}
	}
	prevMoved := false
	for v, g := range geo.Volumes {
		old, cuts := p.splits[v], s.Splits[v]
		parts := p.vols[v].parts
		moved := false
		for i, part := range g.Parts {
			// Part i spans cuts i-1 and i.
			if !whole && (i == 0 || old[i-1] == cuts[i-1]) && (i == len(cuts) || old[i] == cuts[i]) {
				continue
			}
			moved = true
			if part.Empty() {
				parts[i] = compiledPart{}
				continue
			}
			in := g.Inputs[i]
			parts[i] = compiledPart{
				active: true,
				hasIn:  !in.Empty(),
				comp:   e.VolumeLatency(i, g.Layers, part),
			}
			if v == 0 {
				parts[i].scatterB = float64(in.Len()) * g.InRowBytes
			}
		}
		copy(old, cuts)
		if moved || prevMoved {
			for i := range parts {
				k := len(g.Sources[i])
				cp := &parts[i]
				cp.srcs = p.srcBuf[(n*v+i)*n:][:k:k]
				for k, src := range g.Sources[i] {
					cp.srcs[k] = gatherSrc{j: src.From}
					if src.From != i {
						cp.srcs[k].li = linkIdx(n, src.From, i)
						cp.srcs[k].bytes = float64(src.Rows.Len()) * g.InRowBytes
					}
				}
			}
		}
		prevMoved = moved
	}

	// Finish phase: every non-empty last part travels to the FC owner (its
	// own stays put) or, without FC layers, straight to the requester. The
	// FC latency is a function of the owner alone.
	last := geo.Volumes[numVols-1]
	if whole || p.fcOwner != geo.FCOwner {
		p.fcLat = 0
		for _, fc := range geo.FCLayers {
			p.fcLat += e.Devices[geo.FCOwner].ComputeLatency(fc, 1)
		}
	}
	p.fcOwner = geo.FCOwner
	p.resultBytes = geo.ResultBytes
	p.resultLink = 0
	to := network.Requester
	if p.fcOwner >= 0 {
		to = p.fcOwner
		p.resultLink = linkIdx(n, p.fcOwner, network.Requester)
	}
	if p.finish == nil {
		p.finish = make([]gatherSrc, 0, n)
	}
	p.finish = p.finish[:0]
	for j, own := range last.Parts {
		if j != p.fcOwner && !own.Empty() {
			p.finish = append(p.finish, gatherSrc{j: j, li: linkIdx(n, j, to), bytes: float64(own.Len()) * last.OutRowBytes})
		}
	}
	p.collectLinks()
	return nil
}

// collectLinks lists, ascending and once each, the directed links of the
// plan's transfers.
func (p *CompiledPlan) collectLinks() {
	n := len(p.acc)
	if p.linkUsed == nil {
		p.linkUsed = make([]bool, (n+1)*(n+1))
		p.links = make([]int, 0, len(p.linkUsed))
	}
	for v := range p.vols {
		for i := range p.vols[v].parts {
			for _, src := range p.vols[v].parts[i].srcs {
				if src.j != i {
					p.linkUsed[src.li] = true
				}
			}
		}
	}
	if p.fcOwner >= 0 {
		p.linkUsed[p.resultLink] = true
	}
	for _, f := range p.finish {
		p.linkUsed[f.li] = true
	}
	p.links = p.links[:0]
	for li, used := range p.linkUsed {
		if used {
			p.links = append(p.links, li)
			p.linkUsed[li] = false
		}
	}
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
