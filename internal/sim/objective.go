package sim

import (
	"errors"
	"fmt"
	"math"

	"distredge/internal/strategy"
)

// Objective scores a strategy on an environment; lower is better. It is
// the pluggable planning goal of the splitter stack: OSDS episode rewards,
// best-strategy tracking, the warm-start families, the re-planners and the
// experiment harnesses all evaluate strategies through an Objective, so
// the same planner can optimise sequential single-image latency (the
// paper's Eq. 8) or sustained pipelined throughput (the Fig. 16 regime).
type Objective interface {
	// Name identifies the objective ("latency", "ips") in CLI flags and
	// result rows.
	Name() string
	// Score evaluates a full strategy starting at absolute trace time
	// `at`. Lower is better; the unit is seconds (end-to-end latency for
	// the latency objective, steady-state seconds per image for the
	// throughput objective), so scores feed the same reward scaling.
	Score(e *Env, s *strategy.Strategy, at float64) (float64, error)
	// EpisodeScore is the cheap per-episode form used inside OSDS
	// training. seqLatency is the episode's already-simulated sequential
	// end-to-end latency: LatencyObjective returns it unchanged — no
	// extra simulation, keeping training bit-identical to the
	// pre-objective planner — while ThroughputObjective ignores it and
	// replays the episode's strategy through PipelineStreamOpts.
	EpisodeScore(e *Env, s *strategy.Strategy, at, seqLatency float64) (float64, error)
}

// DefaultObjective returns obj, or the latency objective when obj is nil —
// the planner stack's backward-compatible default.
func DefaultObjective(obj Objective) Objective {
	if obj == nil {
		return LatencyObjective{}
	}
	return obj
}

// Rank is the planner's one ranking rule: the objective's score of s at
// trace instant 0 (nil obj = latency), lower is better. Every place that
// picks among finished candidate plans, or stores a plan's score, ranks
// through Rank or Best.
func Rank(e *Env, obj Objective, s *strategy.Strategy) (float64, error) {
	return DefaultObjective(obj).Score(e, s, 0)
}

// Best keeps the best-ranked of the candidates Considered: the first one,
// then any that ranks strictly lower, so a tie keeps the earlier
// candidate. The zero value holds nothing.
type Best struct {
	Strategy *strategy.Strategy // nil until a candidate was ranked
	Score    float64
}

// Consider ranks s under obj on e and keeps it when it beats the best so
// far. A ranking error is returned and leaves b as it was.
func (b *Best) Consider(e *Env, obj Objective, s *strategy.Strategy) error {
	score, err := Rank(e, obj, s)
	if err != nil {
		return err
	}
	if b.Strategy == nil || score < b.Score {
		b.Strategy, b.Score = s, score
	}
	return nil
}

// IsLatencyObjective reports whether obj is the default sequential-latency
// objective (nil counts). Callers use it to keep the default planning path
// bit-identical to the pre-objective tree.
func IsLatencyObjective(obj Objective) bool {
	if obj == nil {
		return true
	}
	_, ok := obj.(LatencyObjective)
	return ok
}

// LatencyObjective scores a strategy by its sequential single-image
// end-to-end latency — Env.Latency, the quantity the paper's OSDS reward
// 1/T (Eq. 8) is built on. It is the default objective everywhere, and
// planning under it is bit-identical to the pre-objective planner
// (enforced by the golden equivalence tests).
type LatencyObjective struct{}

// Name returns "latency".
func (LatencyObjective) Name() string { return "latency" }

// Score returns the end-to-end latency of one image starting at `at`. It
// reads the checked-out plan directly and copies no Breakdown, so a
// ranking of a memoized strategy allocates nothing.
func (LatencyObjective) Score(e *Env, s *strategy.Strategy, at float64) (float64, error) {
	p, err := e.checkoutPlan(s)
	if err != nil {
		return 0, err
	}
	lat, _ := p.run(at)
	e.checkinPlan(p)
	return lat, nil
}

// EpisodeScore returns the episode's already-simulated latency unchanged.
func (LatencyObjective) EpisodeScore(e *Env, s *strategy.Strategy, at, seqLatency float64) (float64, error) {
	return seqLatency, nil
}

// ThroughputObjective scores a strategy by its sustained pipelined serving
// rate: PipelineStreamOpts with Window images in flight, inverted to
// steady-state seconds per image (1/SteadyIPS) so lower is better and the
// scale stays comparable to latency scores. Evaluations go through the
// environment's plan memo and device-latency cache, so scoring inside
// OSDS training costs one short pipelined replay per episode.
type ThroughputObjective struct {
	// Window is the admission window the plan is optimised for
	// (default 4).
	Window int
	// Images is the stream length per evaluation (default 4*Window+8 —
	// long enough that the second-half SteadyIPS measures the filled
	// pipeline, short enough for per-episode use).
	Images int
	// Batch is the per-step image batching the deployment will run with
	// (Options.Batch); the objective scores strategies under the same
	// sublinear batch cost model the runtime charges, so plans picked for a
	// batched deployment account for the amortised step cost. Default 1
	// (no batching — bit-identical to the pre-batching objective).
	Batch int
}

func (o ThroughputObjective) withDefaults() ThroughputObjective {
	if o.Window <= 0 {
		o.Window = 4
	}
	if o.Images <= 0 {
		o.Images = 4*o.Window + 8
	}
	if o.Batch <= 0 {
		o.Batch = 1
	}
	return o
}

// Name returns "ips".
func (ThroughputObjective) Name() string { return "ips" }

// Score returns steady-state seconds per image at the configured window.
func (o ThroughputObjective) Score(e *Env, s *strategy.Strategy, at float64) (float64, error) {
	o = o.withDefaults()
	res, err := e.pipeline(s, PipelineConfig{Images: o.Images, Window: o.Window, Batch: o.Batch, Start: at}, false)
	if err != nil {
		return 0, err
	}
	if res.SteadyIPS <= 0 || math.IsInf(res.SteadyIPS, 0) || math.IsNaN(res.SteadyIPS) {
		return 0, fmt.Errorf("sim: throughput objective: degenerate SteadyIPS %g", res.SteadyIPS)
	}
	return 1 / res.SteadyIPS, nil
}

// EpisodeScore ignores the sequential latency and evaluates the episode's
// strategy pipelined — sustained throughput is what the agent is rewarded
// for, not the latency of a lone image.
func (o ThroughputObjective) EpisodeScore(e *Env, s *strategy.Strategy, at, seqLatency float64) (float64, error) {
	return o.Score(e, s, at)
}

// ErrSLOViolated reports that a strategy's predicted p95
// admission-to-completion latency exceeds the SLO bound. Score reads it
// (errors.Is) to turn a violation into a penalty.
var ErrSLOViolated = errors.New("sim: predicted p95 latency violates the SLO bound")

// sloPenaltySec is the score floor for SLO-violating strategies — far
// worse than any feasible plan's seconds-per-image. The penalty scales
// with the relative violation so the OSDS reward gradient still points
// toward feasibility instead of flattening out.
const sloPenaltySec = 1e6

// SLOThroughputObjective is the serving gateway's planning goal: maximise
// sustained pipelined throughput subject to a p95 admission-to-completion
// latency bound. Feasible strategies score exactly like
// ThroughputObjective (steady-state seconds per image); strategies whose
// predicted p95 — read off the PipelineResult latency distribution at the
// deployment's window and batch — exceeds P95Sec are penalised past any
// feasible score, so the planner only ever prefers a violating plan when
// no evaluated plan meets the bound.
type SLOThroughputObjective struct {
	// Window, Images and Batch parameterise the pipelined evaluation
	// exactly as in ThroughputObjective (same defaults).
	Window int
	Images int
	Batch  int
	// P95Sec is the p95 admission-to-completion latency bound in seconds.
	// Must be positive.
	P95Sec float64
}

func (o SLOThroughputObjective) withDefaults() SLOThroughputObjective {
	if o.Window <= 0 {
		o.Window = 4
	}
	if o.Images <= 0 {
		o.Images = 4*o.Window + 8
	}
	if o.Batch <= 0 {
		o.Batch = 1
	}
	return o
}

// Name returns "slo".
func (SLOThroughputObjective) Name() string { return "slo" }

// eval runs the pipelined evaluation and checks the bound: it returns the
// result plus an error wrapping ErrSLOViolated when the predicted p95
// exceeds P95Sec. perImage as in Env.pipeline.
func (o SLOThroughputObjective) eval(e *Env, s *strategy.Strategy, at float64, perImage bool) (PipelineResult, error) {
	o = o.withDefaults()
	if !(o.P95Sec > 0) {
		return PipelineResult{}, fmt.Errorf("sim: slo objective: p95 bound must be positive, got %g", o.P95Sec)
	}
	res, err := e.pipeline(s, PipelineConfig{Images: o.Images, Window: o.Window, Batch: o.Batch, Start: at}, perImage)
	if err != nil {
		return PipelineResult{}, err
	}
	if res.SteadyIPS <= 0 || math.IsInf(res.SteadyIPS, 0) || math.IsNaN(res.SteadyIPS) {
		return PipelineResult{}, fmt.Errorf("sim: slo objective: degenerate SteadyIPS %g", res.SteadyIPS)
	}
	if res.P95LatMS/1e3 > o.P95Sec {
		return res, fmt.Errorf("%w: predicted p95 %.3gms > bound %.3gms", ErrSLOViolated, res.P95LatMS, o.P95Sec*1e3)
	}
	return res, nil
}

// Score returns steady-state seconds per image when the bound holds, and
// the scaled infeasibility penalty when it does not.
func (o SLOThroughputObjective) Score(e *Env, s *strategy.Strategy, at float64) (float64, error) {
	o = o.withDefaults()
	res, err := o.eval(e, s, at, false)
	if err != nil {
		if errors.Is(err, ErrSLOViolated) {
			return sloPenaltySec * (res.P95LatMS / 1e3 / o.P95Sec), nil
		}
		return 0, err
	}
	return 1 / res.SteadyIPS, nil
}

// EpisodeScore evaluates the episode's strategy under the full constrained
// objective — the agent is rewarded for feasible throughput, so violating
// episodes feel the penalty during training too.
func (o SLOThroughputObjective) EpisodeScore(e *Env, s *strategy.Strategy, at, seqLatency float64) (float64, error) {
	return o.Score(e, s, at)
}
