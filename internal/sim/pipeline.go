package sim

import (
	"math"

	"distredge/internal/network"
	"distredge/internal/strategy"
)

// PipelineResult summarises a pipelined streaming evaluation: `Window`
// images are kept in flight at once (a slot frees the moment its image
// completes), so the result measures sustained throughput rather than the
// sequential latency Stream reports.
type PipelineResult struct {
	Images   int
	Window   int
	Batch    int     // per-step image batching the devices were modelled with
	TotalSec float64 // stream start to last completion
	IPS      float64 // committed images / TotalSec
	// SteadyIPS is the throughput over the second half of the stream, after
	// the pipeline has filled — the sustained-serving rate.
	SteadyIPS float64

	// Per-image latency distribution (admission to completion, seconds).
	// Queueing on busy devices and links is included, so for Window > 1
	// these exceed the single-image oracle latency.
	PerImageSec []float64
	MeanLatMS   float64
	P50LatMS    float64
	P95LatMS    float64
	MaxLatMS    float64
}

// pipeState carries resource occupancy across in-flight images: when each
// provider's compute unit, each directed link, and the requester's scatter
// uplink free up (absolute trace time). Within one image the engine replays
// the oracle schedule of CompiledPlan.run unchanged; the carryover only
// floors the image's start times, so overlapping images queue on devices
// and links while a lone image (window 1) reproduces Stream bit-for-bit.
type pipeState struct {
	n        int
	devFree  []float64 // provider compute unit frees, absolute
	linkFree []float64 // (n+1)^2 directed pairs incl. requester, absolute
	upFree   float64   // requester scatter uplink frees, absolute

	// Per-image scratch: end times relative to the image's admission.
	devFloor []float64
	linkEnd  []float64
	upEnd    float64

	// Step batching (batch != 1 only; batch 1 keeps the float operations of
	// the unbatched engine untouched). stepRuns counts, per (device, volume)
	// pair, how many consecutive images joined the currently open batch of
	// that step, mirroring the runtime's workQueue coalescing: a step whose
	// inputs arrive while the device is still busy queues behind it, and up
	// to `batch` queued images of the same step run as one invocation — the
	// first pays the full step cost, the rest only the marginal cost. batch
	// 0 is the adaptive cap: an open batch admits every queued image.
	batch    int
	stride   int // stepRuns row stride: volumes + 1 (synthetic FC generation)
	stepRuns []int

	// wire multiplies transfer bytes, modelling a payload-shrinking wire
	// codec (1 = raw activation bytes; applied only when != 1 so the
	// default path stays bit-identical).
	wire float64
}

// init sizes the state for n providers, everything free from the start of
// time, and binds it to a plan of numVols volumes.
func (ps *pipeState) init(n, numVols, batch int, wire float64) {
	links := (n + 1) * (n + 1)
	dev, link := make([]float64, 2*n), make([]float64, 2*links)
	*ps = pipeState{
		n:        n,
		devFree:  dev[:n],
		linkFree: link[:links],
		upFree:   math.Inf(-1),
		devFloor: dev[n:],
		linkEnd:  link[links:],
		batch:    batch,
		wire:     wire,
	}
	ps.bindPlan(numVols)
	for i := range ps.devFree {
		ps.devFree[i] = math.Inf(-1)
	}
	for i := range ps.linkFree {
		ps.linkFree[i] = math.Inf(-1)
	}
}

// bindPlan sizes the batching state for a plan of numVols volumes and
// clears it: an open batch does not survive a plan change, and a re-plan
// may change the number of volumes stepRuns is strided by. Resource
// occupancy carries over.
func (ps *pipeState) bindPlan(numVols int) {
	ps.stride = numVols + 1
	if ps.batch != 1 {
		ps.stepRuns = make([]int, ps.n*ps.stride)
	}
}

// batchedComp returns the compute seconds image m charges for the step of
// volume v on device i. queued reports whether the step's inputs arrived
// while the device was still busy — the precondition for the runtime's
// queue coalescing. A queued step joins the open (i, v) batch while it has
// room and pays only the marginal cost; otherwise it starts (or restarts)
// the batch and pays the full step cost. Only called when ps.batch != 1.
func (ps *pipeState) batchedComp(i, v int, comp float64, queued bool) float64 {
	k := i*ps.stride + v
	if queued && ps.stepRuns[k] >= 1 && (ps.batch == 0 || ps.stepRuns[k] < ps.batch) {
		ps.stepRuns[k]++
		return comp * (1 - BatchFixedFrac)
	}
	ps.stepRuns[k] = 1
	return comp
}

// xferBytes applies the wire-codec byte fraction (identity when wire == 1,
// with no float operation, so the default path is bit-identical).
func (ps *pipeState) xferBytes(b float64) float64 {
	if ps.wire != 1 {
		return b * ps.wire
	}
	return b
}

// linkIdx maps a directed (from, to) pair (network.Requester = -1 allowed on
// either side) to a flat index.
func (ps *pipeState) linkIdx(from, to int) int {
	return (from+1)*(ps.n+1) + (to + 1)
}

// floor returns the relative busy floor of an absolute free time for an
// image admitted at `at` (never negative).
func floor(freeAbs, at float64) float64 {
	f := freeAbs - at
	if f < 0 {
		return 0
	}
	return f
}

// runPipelined replays the plan for one image admitted at absolute time
// `at`, flooring start times with the carried resource occupancy and
// recording this image's own occupancy back into ps. It returns the image's
// end-to-end latency (relative to `at`). When every carried floor is in the
// past — always true for window 1 — the float operations are exactly those
// of run, so the latency is bit-identical.
func (p *CompiledPlan) runPipelined(at float64, ps *pipeState) float64 {
	net := p.env.Net
	for i := range p.acc {
		p.acc[i] = 0
		p.busy[i] = floor(ps.devFree[i], at)
		ps.devFloor[i] = p.busy[i]
	}
	for i := range ps.linkEnd {
		ps.linkEnd[i] = -1
	}
	upFloor := floor(ps.upFree, at)
	ps.upEnd = -1

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
					// Scatter starts once the uplink has finished pumping
					// the previous in-flight images' inputs.
					tr := net.TransferLatency(network.Requester, i, ps.xferBytes(cp.scatterB), at+upFloor)
					arrive = upFloor + tr
					if arrive > ps.upEnd {
						ps.upEnd = arrive
					}
				} else {
					for _, src := range cp.srcs {
						t := p.acc[src.j]
						if src.j != i {
							li := ps.linkIdx(src.j, i)
							if lf := floor(ps.linkFree[li], at); lf > t {
								t = lf
							}
							tr := net.TransferLatency(src.j, i, ps.xferBytes(src.bytes), at+t)
							t += tr
							if t > ps.linkEnd[li] {
								ps.linkEnd[li] = t
							}
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
			comp := cp.comp
			if ps.batch != 1 {
				comp = ps.batchedComp(i, v, comp, p.busy[i] > arrive)
			}
			finish := start + comp
			p.busy[i] = finish
			p.accNext[i] = finish
		}
		p.acc, p.accNext = p.accNext, p.acc
	}

	var end float64
	if p.fcOwner < 0 {
		// Fully-convolutional: providers return their rows directly.
		for _, f := range p.finish {
			t := p.acc[f.j]
			li := ps.linkIdx(f.j, network.Requester)
			if lf := floor(ps.linkFree[li], at); lf > t {
				t = lf
			}
			t += net.TransferLatency(f.j, network.Requester, ps.xferBytes(f.bytes), at+t)
			if t > ps.linkEnd[li] {
				ps.linkEnd[li] = t
			}
			if t > end {
				end = t
			}
		}
	} else {
		ready := p.acc[p.fcOwner]
		for _, f := range p.finish {
			t := p.acc[f.j]
			li := ps.linkIdx(f.j, p.fcOwner)
			if lf := floor(ps.linkFree[li], at); lf > t {
				t = lf
			}
			t += net.TransferLatency(f.j, p.fcOwner, ps.xferBytes(f.bytes), at+t)
			if t > ps.linkEnd[li] {
				ps.linkEnd[li] = t
			}
			if t > ready {
				ready = t
			}
		}
		start := ready
		if p.busy[p.fcOwner] > start {
			start = p.busy[p.fcOwner]
		}
		fcLat := p.fcLat
		if ps.batch != 1 {
			fcLat = ps.batchedComp(p.fcOwner, len(p.vols), fcLat, p.busy[p.fcOwner] > ready)
		}
		done := start + fcLat
		p.busy[p.fcOwner] = done
		li := ps.linkIdx(p.fcOwner, network.Requester)
		t := done
		if lf := floor(ps.linkFree[li], at); lf > t {
			t = lf
		}
		end = t + net.TransferLatency(p.fcOwner, network.Requester, ps.xferBytes(p.resultBytes), at+t)
		if end > ps.linkEnd[li] {
			ps.linkEnd[li] = end
		}
	}

	// Merge this image's occupancy back into the carried state. Only
	// resources the image actually used are touched, so idle devices do not
	// accumulate rounding drift from the relative/absolute round trip.
	for i := range p.busy {
		if p.busy[i] > ps.devFloor[i] {
			if abs := at + p.busy[i]; abs > ps.devFree[i] {
				ps.devFree[i] = abs
			}
		}
	}
	for li, e := range ps.linkEnd {
		if e >= 0 {
			if abs := at + e; abs > ps.linkFree[li] {
				ps.linkFree[li] = abs
			}
		}
	}
	if ps.upEnd >= 0 {
		if abs := at + ps.upEnd; abs > ps.upFree {
			ps.upFree = abs
		}
	}
	return end
}

// PipelineConfig is the one-tenant, no-event spelling of a Scenario: Images
// requests enqueued at Start, the other fields as in Scenario.
type PipelineConfig struct {
	Images   int
	Window   int
	Batch    int
	WireFrac float64
	Start    float64
}

// PipelineStreamOpts evaluates the strategy over cfg.Images images with up
// to cfg.Window in flight: Serve with one tenant enqueued at the start and
// no fleet events, assembling the fleet's view only (the planning
// objectives call this per episode; see TestPipelineStreamOptsAllocs).
// Window 1 is exactly
// Stream's one-at-a-time protocol and reproduces its TotalSec and IPS
// bit-for-bit. Overlapping images queue on the shared resources —
// per-provider compute units, every directed link, and the requester's
// scatter uplink — so the result measures the sustained images/sec the
// deployment can serve plus the per-image latency distribution under load.
func (e *Env) PipelineStreamOpts(s *strategy.Strategy, cfg PipelineConfig) (PipelineResult, error) {
	var r serving
	err := r.run(e, s, &Scenario{
		Tenants: []TenantSpec{{Images: cfg.Images}},
		Window:  cfg.Window, Batch: cfg.Batch, WireFrac: cfg.WireFrac, Start: cfg.Start,
	})
	if err != nil {
		return PipelineResult{}, err
	}
	return r.overall().PipelineResult, nil
}

// steadyIPS returns the throughput over the second half of a completion
// timeline (absolute completion times in admission order) — the sustained
// rate once the pipeline has filled. When the half-point span is not
// positive — a single-image stream, or every second-half image completing
// at the identical timestamp, which a degenerate plan on a constant trace
// can produce — it falls back to the overall rate instead of dividing by
// zero (regression-tested by TestSteadyIPSZeroSpanFallsBackToIPS).
func steadyIPS(complete []float64, ips float64) float64 {
	n := len(complete)
	if half := n / 2; half >= 1 && n > half {
		span := complete[n-1] - complete[half-1]
		if span > 0 {
			return float64(n-half) / span
		}
	}
	return ips
}
