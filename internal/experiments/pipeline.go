package experiments

import (
	"fmt"

	"distredge/internal/cnn"
	"distredge/internal/device"
	"distredge/internal/sim"
	"distredge/internal/strategy"
)

// WindowRow is one cell of the throughput-vs-window grid: a (case, method)
// strategy served with the given admission window.
type WindowRow struct {
	Case      string
	Method    string
	Window    int
	IPS       float64
	SteadyIPS float64
	MeanLatMS float64
	P95LatMS  float64
	// SpeedupVsSeq is IPS relative to the same strategy served
	// sequentially (window 1).
	SpeedupVsSeq float64
}

// MethodStage labels the throughput-oriented stage layout in window rows.
const MethodStage = "Stage"

// StageStrategy is strategy.Stage, the stage-pipelined layout: volume v
// of the given boundaries runs entirely on provider v mod n.
func StageStrategy(m *cnn.Model, boundaries []int, n int) *strategy.Strategy {
	return strategy.Stage(m, boundaries, n)
}

// StageBoundaries merges the model's pool boundaries down to at most n
// volumes. With more volumes than providers a stage layout wraps two stages
// onto one device, whose per-image busy span then covers most of the image
// — serialising the pipeline it was meant to fill.
func StageBoundaries(m *cnn.Model, n int) []int {
	pb := strategy.PoolBoundaries(m)
	vols := len(pb) - 1
	if vols <= n {
		return pb
	}
	out := make([]int, n+1)
	for i := 0; i <= n; i++ {
		out[i] = pb[i*vols/n]
	}
	return out
}

// pipelined is the serving scenario of the window, objective and churn
// sweeps: one tenant's images from time 0, `window` in flight, step
// batching off, raw wire bytes.
func pipelined(images, window int) sim.Scenario {
	return sim.Scenario{Tenants: []sim.TenantSpec{{Images: images}}, Window: window, Batch: 1}
}

// DefaultWindows is the admission-window grid distbench sweeps.
func DefaultWindows() []int { return []int{1, 2, 4, 8} }

// windowSpecs are the cases of the window sweep: the Table I Group DB
// fleet on VGG-16 plus a homogeneous Nano fleet on the fully-convolutional
// YOLOv2 (no FC gather stage, so stage pipelining has the most to gain).
func windowSpecs(seed int64) []Spec {
	return []Spec{
		DeviceGroups()[1].Spec(cnn.VGG16(), 200, seed),
		{
			Name:           "NanoX4-100Mbps-yolov2",
			Model:          cnn.YOLOv2(),
			Types:          []device.Type{device.Nano, device.Nano, device.Nano, device.Nano},
			BandwidthsMbps: uniform(100, 4),
			Seed:           seed,
		},
	}
}

// Fig16WindowSweep measures sustained images/sec versus admission window
// size for each case: the DistrEdge-planned strategy (optimised for
// single-image latency) against the stage layout (optimised for pipelined
// throughput). Cases run on the budget's worker pool; rows are
// deterministic for any worker count.
func Fig16WindowSweep(b Budget, windows []int) ([]WindowRow, error) {
	if len(windows) == 0 {
		windows = DefaultWindows()
	}
	specs := windowSpecs(b.Seed)
	perCase := make([][]WindowRow, len(specs))
	err := runIndexed(len(specs), b.Workers(), func(ci int) error {
		spec := specs[ci]
		env := spec.Env()
		planned, err := Request{Budget: b, Alpha: 0.75}.Plan(env, nil, nil)
		if err != nil {
			return fmt.Errorf("experiments: window sweep %s: %w", spec.Name, err)
		}
		stage := strategy.Stage(spec.Model, StageBoundaries(spec.Model, env.NumProviders()), env.NumProviders())
		var rows []WindowRow
		for _, m := range []struct {
			name  string
			strat *strategy.Strategy
		}{
			{MethodDistrEdge, planned},
			{MethodStage, stage},
		} {
			seq, err := env.Serve(m.strat, pipelined(b.StreamImages, 1))
			if err != nil {
				return fmt.Errorf("experiments: window sweep %s/%s: %w", spec.Name, m.name, err)
			}
			for _, w := range windows {
				res := seq
				if w != 1 {
					res, err = env.Serve(m.strat, pipelined(b.StreamImages, w))
					if err != nil {
						return fmt.Errorf("experiments: window sweep %s/%s: %w", spec.Name, m.name, err)
					}
				}
				rows = append(rows, WindowRow{
					Case:         spec.Name,
					Method:       m.name,
					Window:       w,
					IPS:          res.IPS,
					SteadyIPS:    res.SteadyIPS,
					MeanLatMS:    res.MeanLatMS,
					P95LatMS:     res.P95LatMS,
					SpeedupVsSeq: res.IPS / seq.IPS,
				})
			}
		}
		perCase[ci] = rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []WindowRow
	for _, rows := range perCase {
		out = append(out, rows...)
	}
	return out, nil
}
