// Package runtime executes a distribution strategy over a pluggable wire
// stack (internal/transport), reproducing the paper's deployment
// (Section V-A): a controller derives per-provider plans from the strategy,
// split-part weights are preloaded, each provider runs a receive thread per
// inbound connection (which assembles chunks and queues the steps they
// complete), one compute thread and a send thread per destination, and the
// requester admits images through Cluster.Submit, one image's
// scatter-to-result round trip.
//
// Cluster.Serve runs a sim.Scenario — the value sim.Serve predicts — on the
// deployed fleet (Window 1 is the paper's protocol: an image is not sent
// until the previous result returns) and reports a sim.ServeResult in model
// time, so a sim-vs-runtime comparison is one function over two results.
//
// Compute is emulated: providers sleep for the device model's latency
// (scaled by Options.TimeScale) instead of running CUDA kernels, and
// payloads carry the real activation byte counts (scaled by
// Options.BytesScale). The protocol — framing, routing, assembly, FC
// gathering — is fully real, over whatever medium Options.Transport
// selects: localhost TCP sockets (the default, and the paper's testbed
// shape), in-process channels, trace-shaped links that reproduce the
// simulator's WiFi conditions, or a chaos-injecting decorator.
package runtime

import (
	"fmt"
	"time"

	"distredge/internal/cnn"
	"distredge/internal/device"
	"distredge/internal/sim"
	"distredge/internal/strategy"
	"distredge/internal/transport"
)

// RequesterID is the destination index denoting the service requester.
const RequesterID = -1

// Options tunes the emulation scales, run limits and the fault-tolerance
// behaviour.
type Options struct {
	// TimeScale multiplies emulated compute sleeps (1.0 = model latency;
	// tests use small values).
	TimeScale float64
	// BytesScale multiplies payload sizes (1.0 = real activation bytes).
	BytesScale float64
	// Timeout bounds how long the requester waits for any single image
	// before failing the run (default 30s). Cluster-level errors — dead
	// peers, failed sends — abort runs immediately, without waiting it out.
	Timeout time.Duration

	// Batch caps per-step image batching on every provider: when a step
	// becomes ready while the compute thread is busy, up to Batch queued
	// same-step work items (across in-flight images) coalesce into one
	// emulated invocation charged sim.BatchedComputeSec — the per-step
	// fixed cost once plus a marginal share per image. Outputs are still
	// emitted per image, so assembly, gc watermarks, churn recovery and
	// re-scatter are untouched. 1 (or negative) disables batching
	// (bit-identical to the pre-batching compute loop); 0 — the zero value
	// — is the adaptive cap: the compute thread drains every same-step
	// item that queued while it was busy, with no size bound. The sim
	// mirror is PipelineConfig.Batch.
	Batch int

	// Recover turns on online churn recovery: when a provider is declared
	// dead (missed heartbeats, failed sends), the first Submit that runs
	// into it quarantines the provider, re-plans the strategy over the
	// survivors and redeploys them, and every caller re-scatters its own
	// incomplete image instead of failing — on every path, Serve and the
	// gateway included. Without it, failure stays sticky (Cluster.Err).
	Recover bool
	// HeartbeatInterval is the period at which every provider beats to the
	// requester over its result link (default 50ms). Negative disables
	// health tracking; failures are then detected only via failed sends.
	HeartbeatInterval time.Duration
	// HeartbeatMisses is how many consecutive missed beats declare a
	// provider dead (default 6).
	HeartbeatMisses int
	// Replan picks the re-planner recovery uses; nil means
	// splitter.BalancedReplan — the old volume boundaries re-balanced over
	// the survivors from the device profiles, no training on the serving
	// path. A deployment serving another objective recovers for it with
	// splitter.ObjectiveReplan(obj).
	Replan sim.ReplanFunc

	// Transport selects the wire stack the cluster deploys over: nil means
	// localhost TCP with the binary chunk codec.
	// transport.NewInproc gives a socket-free in-process cluster;
	// transport.NewShaped charges the simulator's WiFi trace latency to
	// the bytes the inner stack puts on the wire; transport.NewChaos
	// injects seeded faults. One Transport value is one network
	// namespace — do not share an Inproc across unrelated clusters.
	Transport transport.Transport
}

func (o Options) withDefaults() Options {
	if o.TimeScale == 0 {
		o.TimeScale = 1
	}
	if o.BytesScale == 0 {
		o.BytesScale = 1
	}
	if o.Timeout == 0 {
		o.Timeout = 30 * time.Second
	}
	if o.HeartbeatInterval == 0 {
		o.HeartbeatInterval = 50 * time.Millisecond
	}
	if o.HeartbeatInterval < 0 {
		o.HeartbeatInterval = 0 // disabled
	}
	if o.HeartbeatMisses <= 0 {
		o.HeartbeatMisses = 6
	}
	if o.Batch < 0 {
		o.Batch = 1
	}
	if o.Transport == nil {
		o.Transport = transport.NewTCP(nil)
	}
	return o
}

// Need is one input dependency of a step: rows [Lo,Hi) of the data produced
// at the given volume generation (-1 = the raw input image).
type Need struct {
	Volume int
	Lo, Hi int
}

// Route is one output obligation of a step: send rows [Lo,Hi) of this
// step's generation to Dest (provider index or RequesterID).
type Route struct {
	Dest   int
	Lo, Hi int
}

// Step is one unit of work a provider performs per image: wait for all
// Needs, "compute" for ComputeSec, then emit Routes.
type Step struct {
	Volume     int // generation this step produces
	Part       cnn.RowRange
	Needs      []Need
	Routes     []Route
	ComputeSec float64
	RowBytes   int // bytes per produced row (scaled)
}

// ProviderPlan is everything provider i must do for each image.
type ProviderPlan struct {
	Index int
	Steps []Step
}

// Plan is the controller's output: per-provider plans plus what the
// requester must scatter and await.
type Plan struct {
	Providers []ProviderPlan
	// Scatter lists the input-image rows each vol-0 provider needs.
	Scatter       []Need // indexed parallel to ScatterDest
	ScatterDest   []int
	InputRowBytes int
	// Await lists the (volume, lo, hi) chunks that complete one image.
	Await []Need
}

// maxChunkBytes returns the largest payload any chunk of this plan ships —
// scatter rows from the requester or routed activation rows between
// providers. Deploy passes it to transport.SetBufferHint so wire buffers
// cover a whole chunk.
func (p *Plan) maxChunkBytes() int {
	max := 0
	for _, need := range p.Scatter {
		if n := (need.Hi - need.Lo) * p.InputRowBytes; n > max {
			max = n
		}
	}
	for _, pp := range p.Providers {
		for _, st := range pp.Steps {
			for _, r := range st.Routes {
				if n := (r.Hi - r.Lo) * st.RowBytes; n > max {
					max = n
				}
			}
		}
	}
	return max
}

// BuildPlan compiles a strategy into a deployment plan. The plan is a
// translation of strategy.Geometry — every halo overlap becomes a Need of
// its consumer and a Route of its producer — with the env's device profiles
// supplying the emulated compute times.
func BuildPlan(env *sim.Env, strat *strategy.Strategy, opts Options) (*Plan, error) {
	opts = opts.withDefaults()
	geo, err := strategy.CompileGeometry(env.Model, strat, env.NumProviders())
	if err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	scale := func(b float64) int {
		v := int(b * opts.BytesScale)
		if v < 1 {
			v = 1
		}
		return v
	}

	plans := make([]ProviderPlan, env.NumProviders())
	for i := range plans {
		plans[i].Index = i
	}
	// route adds an output obligation to provider i's newest step.
	route := func(i int, r Route) {
		st := &plans[i].Steps[len(plans[i].Steps)-1]
		st.Routes = append(st.Routes, r)
	}
	plan := &Plan{Providers: plans, InputRowBytes: scale(geo.Volumes[0].InRowBytes)}
	for v, g := range geo.Volumes {
		// Routes first: until this volume's steps are appended below, every
		// producer's newest step is the one whose rows are being consumed.
		for i, srcs := range g.Sources {
			for _, src := range srcs {
				route(src.From, Route{Dest: i, Lo: src.Rows.Lo, Hi: src.Rows.Hi})
			}
		}
		for i, part := range g.Parts {
			if part.Empty() {
				continue
			}
			st := Step{
				Volume:     v,
				Part:       part,
				ComputeSec: device.VolumeLatency(env.Devices[i], g.Layers, part) * opts.TimeScale,
				RowBytes:   scale(g.OutRowBytes),
			}
			if v == 0 {
				in := Need{Volume: volInput, Lo: g.Inputs[i].Lo, Hi: g.Inputs[i].Hi}
				st.Needs = append(st.Needs, in)
				plan.Scatter = append(plan.Scatter, in)
				plan.ScatterDest = append(plan.ScatterDest, i)
			}
			for _, src := range g.Sources[i] {
				st.Needs = append(st.Needs, Need{Volume: v - 1, Lo: src.Rows.Lo, Hi: src.Rows.Hi})
			}
			plans[i].Steps = append(plans[i].Steps, st)
		}
	}

	// Finish phase: every last part goes to the FC owner — its own through a
	// route to itself, like any other chunk — whose synthetic FC step
	// produces the one chunk the requester awaits; without FC layers the
	// parts themselves go to the requester.
	last := len(geo.Volumes) - 1
	dest := RequesterID
	if geo.FCOwner >= 0 {
		dest = geo.FCOwner
	}
	var gathered []Need
	for i, part := range geo.Volumes[last].Parts {
		if part.Empty() {
			continue
		}
		route(i, Route{Dest: dest, Lo: part.Lo, Hi: part.Hi})
		gathered = append(gathered, Need{Volume: last, Lo: part.Lo, Hi: part.Hi})
	}
	if geo.FCOwner < 0 {
		plan.Await = gathered
		return plan, nil
	}
	var fcLat float64
	for _, fc := range geo.FCLayers {
		fcLat += env.Devices[geo.FCOwner].ComputeLatency(fc, 1)
	}
	plans[geo.FCOwner].Steps = append(plans[geo.FCOwner].Steps, Step{
		Volume:     last + 1, // synthetic FC generation
		Part:       cnn.RowRange{Lo: 0, Hi: 1},
		Needs:      gathered,
		Routes:     []Route{{Dest: RequesterID, Lo: 0, Hi: 1}},
		ComputeSec: fcLat * opts.TimeScale,
		RowBytes:   scale(geo.ResultBytes),
	})
	plan.Await = []Need{{Volume: last + 1, Lo: 0, Hi: 1}}
	return plan, nil
}
