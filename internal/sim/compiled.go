package sim

import (
	"distredge/internal/network"
	"distredge/internal/strategy"
)

// gatherSrc is one precompiled transfer source: provider j sends `bytes`
// payload bytes (0 when the rows are already local, j == receiver).
type gatherSrc struct {
	j     int
	bytes float64
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
// image (run) evaluates only the time-varying network transfers and reuses
// all buffers, so it allocates nothing.
//
// A CompiledPlan is not safe for concurrent use; Env.Latency/Stream manage
// exclusive checkout of memoized plans.
type CompiledPlan struct {
	env   *Env
	strat *strategy.Strategy

	// Fingerprint copies guarding against in-place strategy mutation.
	boundaries []int
	splits     [][]int

	vols []compiledVolume

	// Finish phase. fcOwner is -1 for fully-convolutional models, where
	// finish holds each provider's result-return transfer; otherwise it is
	// the FC owner and finish holds the gather-to-owner transfers.
	fcOwner     int
	fcLat       float64
	resultBytes float64
	finish      []gatherSrc

	// Per-image scratch.
	acc, accNext, busy []float64
	bdComp, bdTrans    []float64
}

// Compile validates the strategy against the environment and precomputes
// the execution plan. The compiled plan replays the exact computation of
// ReferenceLatency — float operations in the same order on the same
// values — so results are bit-identical.
func Compile(e *Env, s *strategy.Strategy) (*CompiledPlan, error) {
	n := e.NumProviders()
	geo, err := strategy.CompileGeometry(e.Model, s, n)
	if err != nil {
		return nil, err
	}
	p := &CompiledPlan{
		env:        e,
		strat:      s,
		boundaries: append([]int(nil), s.Boundaries...),
		splits:     make([][]int, len(s.Splits)),
		vols:       make([]compiledVolume, len(geo.Volumes)),
		acc:        make([]float64, n),
		accNext:    make([]float64, n),
		busy:       make([]float64, n),
		bdComp:     make([]float64, n),
		bdTrans:    make([]float64, n),
	}
	for v, cuts := range s.Splits {
		p.splits[v] = append([]int(nil), cuts...)
	}

	for v, g := range geo.Volumes {
		cv := compiledVolume{parts: make([]compiledPart, n)}
		for i, part := range g.Parts {
			if part.Empty() {
				continue
			}
			in := g.Inputs[i]
			cp := compiledPart{
				active: true,
				hasIn:  !in.Empty(),
				comp:   e.VolumeLatency(i, g.Layers, part),
				srcs:   make([]gatherSrc, len(g.Sources[i])),
			}
			if v == 0 {
				cp.scatterB = float64(in.Len()) * g.InRowBytes
			}
			for k, src := range g.Sources[i] {
				cp.srcs[k].j = src.From
				if src.From != i {
					cp.srcs[k].bytes = float64(src.Rows.Len()) * g.InRowBytes
				}
			}
			cv.parts[i] = cp
		}
		p.vols[v] = cv
	}

	// Finish phase: every non-empty last part travels to the FC owner (its
	// own stays put) or, without FC layers, straight to the requester.
	last := geo.Volumes[len(geo.Volumes)-1]
	p.fcOwner = geo.FCOwner
	p.resultBytes = geo.ResultBytes
	for _, fc := range geo.FCLayers {
		p.fcLat += e.Devices[p.fcOwner].ComputeLatency(fc, 1)
	}
	p.finish = make([]gatherSrc, 0, n)
	for j, own := range last.Parts {
		if j != p.fcOwner && !own.Empty() {
			p.finish = append(p.finish, gatherSrc{j: j, bytes: float64(own.Len()) * last.OutRowBytes})
		}
	}
	return p, nil
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

// run replays the plan for one image. The returned Breakdown aliases the
// plan's scratch buffers and is valid until the next run.
func (p *CompiledPlan) run(at float64) (float64, Breakdown) {
	net := p.env.Net
	for i := range p.acc {
		p.acc[i] = 0
		p.busy[i] = 0
		p.bdComp[i] = 0
		p.bdTrans[i] = 0
	}
	for v := range p.vols {
		copy(p.accNext, p.acc)
		parts := p.vols[v].parts
		for i := range parts {
			cp := &parts[i]
			if !cp.active {
				continue
			}
			var arrive float64
			if cp.hasIn {
				if v == 0 {
					tr := net.TransferLatency(network.Requester, i, cp.scatterB, at)
					p.bdTrans[i] += tr
					arrive = tr
				} else {
					for _, src := range cp.srcs {
						t := p.acc[src.j]
						if src.j != i {
							tr := net.TransferLatency(src.j, i, src.bytes, at+t)
							p.bdTrans[i] += tr
							t += tr
						}
						if t > arrive {
							arrive = t
						}
					}
				}
			}
			start := arrive
			if p.busy[i] > start {
				start = p.busy[i]
			}
			finish := start + cp.comp
			p.bdComp[i] += cp.comp
			p.busy[i] = finish
			p.accNext[i] = finish
		}
		p.acc, p.accNext = p.accNext, p.acc
	}

	bd := Breakdown{PerDevComp: p.bdComp, PerDevTrans: p.bdTrans}
	if p.fcOwner < 0 {
		// Fully-convolutional: providers return their rows directly.
		var end float64
		for _, f := range p.finish {
			t := p.acc[f.j] + net.TransferLatency(f.j, network.Requester, f.bytes, at+p.acc[f.j])
			if t > end {
				end = t
			}
		}
		return end, bd
	}
	ready := p.acc[p.fcOwner]
	for _, f := range p.finish {
		tr := net.TransferLatency(f.j, p.fcOwner, f.bytes, at+p.acc[f.j])
		p.bdTrans[p.fcOwner] += tr
		if t := p.acc[f.j] + tr; t > ready {
			ready = t
		}
	}
	p.bdComp[p.fcOwner] += p.fcLat
	done := ready + p.fcLat
	end := done + net.TransferLatency(p.fcOwner, network.Requester, p.resultBytes, at+done)
	return end, bd
}
