package sim

import (
	"math"
	"slices"

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
// uplink free up (absolute trace time). CompiledPlan.replay reads it as
// floors on the image's start times, so overlapping images queue on devices
// and links, while on an all-free state (every single-image caller, and a
// lone image at window 1) every floor is 0 and the schedule is the oracle's.
type pipeState struct {
	n        int
	devFree  []float64 // provider compute unit frees, absolute
	linkFree []float64 // (n+1)^2 directed pairs incl. requester, absolute
	upFree   float64   // requester scatter uplink frees, absolute

	// Per-image scratch: end times relative to the image's admission, -1
	// for a resource the image did not use. Only the plan's links are kept.
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
	// codec (1 = raw activation bytes; x*1 == x exactly, so the default
	// path is bit-identical to the unscaled one).
	wire float64
}

// init sizes the state for n providers, everything free from the start of
// time, and binds it to a plan of numVols volumes. A state sized for n
// before keeps its buffers: devFloor, linkEnd and upEnd are per-image
// scratch every replay sets before it reads them.
func (ps *pipeState) init(n, numVols, batch int, wire float64) {
	if ps.devFree == nil || ps.n != n {
		links := (n + 1) * (n + 1)
		buf := make([]float64, 2*(n+links))
		ps.devFree = buf[:n:n]
		ps.linkFree = buf[n : n+links : n+links]
		ps.devFloor = buf[n+links : 2*n+links : 2*n+links]
		ps.linkEnd = buf[2*n+links:]
	}
	ps.n, ps.batch, ps.wire = n, batch, wire
	ps.bindPlan(numVols)
	for i := range ps.linkFree {
		ps.linkFree[i] = math.Inf(-1)
	}
	ps.reset(nil)
}

// reset frees every device, the scatter uplink and the given links from the
// start of time again. A state only ever replayed with one plan occupies
// no links but that plan's.
func (ps *pipeState) reset(links []int) {
	for i := range ps.devFree {
		ps.devFree[i] = math.Inf(-1)
	}
	for _, li := range links {
		ps.linkFree[li] = math.Inf(-1)
	}
	ps.upFree = math.Inf(-1)
}

// bindPlan sizes the batching state for a plan of numVols volumes and
// clears it: an open batch does not survive a plan change, and a re-plan
// may change the number of volumes stepRuns is strided by. Resource
// occupancy carries over.
func (ps *pipeState) bindPlan(numVols int) {
	ps.stride = numVols + 1
	if ps.batch != 1 {
		ps.stepRuns = resize(ps.stepRuns, ps.n*ps.stride)
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

// send charges one transfer of `bytes` from `from` to `to` over link li,
// ready at time t relative to an image admitted at `at`: it waits until the
// link has carried the earlier images' transfers and keeps it busy until
// this one ends. It returns when the transfer starts and how long it takes.
//
// Here and in replay the running maxima are branches, not the max builtin:
// they sit on the schedule's dependency chain, where the builtin's
// NaN-propagating instruction sequence costs measurably more.
func (ps *pipeState) send(net *network.Network, at, t float64, from, to, li int, bytes float64) (float64, float64) {
	if lf := floor(ps.linkFree[li], at); lf > t {
		t = lf
	}
	tr := net.TransferLatency(from, to, bytes*ps.wire, at+t)
	if e := t + tr; e > ps.linkEnd[li] {
		ps.linkEnd[li] = e
	}
	return t, tr
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

// replay is the per-image schedule: it replays the plan for one image
// admitted at absolute time `at`, flooring start times with the resource
// occupancy ps carries from earlier images and recording this image's own
// occupancy back into ps. It returns the image's end-to-end latency
// (relative to `at`), leaves the image's per-device compute and
// receive-side transfer seconds in bdComp/bdTrans and, when ev is non-nil,
// appends one Event per scatter, recv, compute, gather, fc and result.
//
// Every caller runs it: Latency, Stream and Timeline on an all-free state,
// Serve on the state it carries across in-flight images. On an all-free
// state every floor is 0, batching and the wire fraction are identities, and
// the float operations are those of ReferenceLatency, so the latency is
// bit-identical to it.
func (p *CompiledPlan) replay(at float64, ps *pipeState, ev *[]Event) float64 {
	net := p.env.Net
	acc, accNext, busy := p.acc, p.accNext, p.busy
	bdComp, bdTrans := p.bdComp, p.bdTrans
	for i := range acc {
		acc[i] = 0
		busy[i] = floor(ps.devFree[i], at)
		ps.devFloor[i] = busy[i]
		bdComp[i] = 0
		bdTrans[i] = 0
	}
	for _, li := range p.links {
		ps.linkEnd[li] = -1
	}
	upFloor := floor(ps.upFree, at)
	ps.upEnd = -1

	for v := range p.vols {
		copy(accNext, acc)
		parts := p.vols[v].parts
		for i := range parts {
			cp := &parts[i]
			if !cp.active {
				continue
			}
			var arrive float64
			if cp.hasIn && v == 0 {
				// Scatter starts once the uplink has finished pumping the
				// previous in-flight images' inputs.
				tr := net.TransferLatency(network.Requester, i, cp.scatterB*ps.wire, at+upFloor)
				bdTrans[i] += tr
				arrive = upFloor + tr
				if tr > 0 {
					emit(ev, i, v, EventScatter, upFloor, arrive)
				}
				if arrive > ps.upEnd {
					ps.upEnd = arrive
				}
			}
			for _, src := range cp.srcs {
				t := acc[src.j]
				if src.j != i {
					start, tr := ps.send(net, at, t, src.j, i, src.li, src.bytes)
					bdTrans[i] += tr
					t = start + tr
					if tr > 0 {
						emit(ev, i, v, EventRecv, start, t)
					}
				}
				if t > arrive {
					arrive = t
				}
			}
			start := arrive
			if busy[i] > start {
				start = busy[i]
			}
			comp := cp.comp
			if ps.batch != 1 {
				comp = ps.batchedComp(i, v, comp, busy[i] > arrive)
			}
			finish := start + comp
			bdComp[i] += comp
			emit(ev, i, v, EventCompute, start, finish)
			busy[i] = finish
			accNext[i] = finish
		}
		acc, accNext = accNext, acc
	}

	var end float64
	if p.fcOwner < 0 {
		// Fully-convolutional: providers return their rows directly.
		for _, f := range p.finish {
			start, tr := ps.send(net, at, acc[f.j], f.j, network.Requester, f.li, f.bytes)
			emit(ev, f.j, -1, EventResult, start, start+tr)
			if t := start + tr; t > end {
				end = t
			}
		}
	} else {
		o := p.fcOwner
		ready := acc[o]
		for _, f := range p.finish {
			start, tr := ps.send(net, at, acc[f.j], f.j, o, f.li, f.bytes)
			bdTrans[o] += tr
			emit(ev, o, -1, EventGather, start, start+tr)
			if t := start + tr; t > ready {
				ready = t
			}
		}
		start := ready
		if busy[o] > start {
			start = busy[o]
		}
		fcLat := p.fcLat
		if ps.batch != 1 {
			fcLat = ps.batchedComp(o, len(p.vols), fcLat, busy[o] > ready)
		}
		done := start + fcLat
		bdComp[o] += fcLat
		emit(ev, o, -1, EventFC, start, done)
		busy[o] = done
		start, tr := ps.send(net, at, done, o, network.Requester, p.resultLink, p.resultBytes)
		end = start + tr
		emit(ev, o, -1, EventResult, start, end)
	}

	// Merge this image's occupancy back into the carried state. Only
	// resources the image actually used are touched, so idle devices do not
	// accumulate rounding drift from the relative/absolute round trip.
	for i := range busy {
		if busy[i] > ps.devFloor[i] {
			ps.devFree[i] = max(ps.devFree[i], at+busy[i])
		}
	}
	for _, li := range p.links {
		if e := ps.linkEnd[li]; e >= 0 {
			ps.linkFree[li] = max(ps.linkFree[li], at+e)
		}
	}
	if ps.upEnd >= 0 {
		ps.upFree = max(ps.upFree, at+ps.upEnd)
	}
	return end
}

// emit appends one event to the sink, if there is one.
func emit(ev *[]Event, dev, vol int, kind EventKind, start, end float64) {
	if ev != nil {
		*ev = append(*ev, Event{Device: dev, Volume: vol, Kind: kind, Start: start, End: end})
	}
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
// no fleet events, assembling the fleet's view only. Window 1 is exactly
// Stream's one-at-a-time protocol and reproduces its TotalSec and IPS
// bit-for-bit. Overlapping images queue on the shared resources —
// per-provider compute units, every directed link, and the requester's
// scatter uplink — so the result measures the sustained images/sec the
// deployment can serve plus the per-image latency distribution under load.
func (e *Env) PipelineStreamOpts(s *strategy.Strategy, cfg PipelineConfig) (PipelineResult, error) {
	return e.pipeline(s, cfg, true)
}

// pipeline is PipelineStreamOpts on the run state the memoized plan of s
// keeps, so that a call on a memoized plan allocates nothing but what the
// caller keeps (TestPipelineStreamOptsAllocs): the planning objectives call
// it once per OSDS episode. perImage copies PerImageSec out of that state
// for the caller; without it PerImageSec is nil.
func (e *Env) pipeline(s *strategy.Strategy, cfg PipelineConfig, perImage bool) (PipelineResult, error) {
	p, err := e.checkoutPlan(s)
	if err != nil {
		return PipelineResult{}, err
	}
	defer e.checkinPlan(p)
	if p.pipe == nil {
		p.pipe = new(serving)
	}
	r := p.pipe
	r.spec[0] = TenantSpec{Images: cfg.Images}
	sc := Scenario{
		Tenants: r.spec[:],
		Window:  cfg.Window, Batch: cfg.Batch, WireFrac: cfg.WireFrac, Start: cfg.Start,
	}
	if err := r.init(e.NumProviders(), &sc); err != nil {
		return PipelineResult{}, err
	}
	if err := r.run(e, p, &sc); err != nil {
		return PipelineResult{}, err
	}
	res := r.res
	res.Assemble(r.start, r.lat[:r.ids], r.complete[:r.ids], &r.scratch)
	out := res.PipelineResult
	out.PerImageSec = nil
	if perImage {
		out.PerImageSec = slices.Clone(res.PerImageSec)
	}
	return out, nil
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
