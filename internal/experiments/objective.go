package experiments

import (
	"fmt"

	"distredge/internal/cnn"
	"distredge/internal/device"
	"distredge/internal/network"
	"distredge/internal/sim"
)

// Planner labels for the objective sweep rows.
const (
	PlannerLatency = "latency"
	PlannerIPS     = "ips"
)

// ObjectiveRow is one cell of the planning-objective sweep: a case's
// strategy — planned for sequential latency or for sustained IPS — served
// with the given admission window.
type ObjectiveRow struct {
	Case      string
	Planner   string // PlannerLatency or PlannerIPS
	Window    int
	IPS       float64
	SteadyIPS float64
	MeanLatMS float64
	P95LatMS  float64
}

// objectiveCase is one case of the objective sweep. Cases carry an env
// constructor rather than a Spec because the sweep covers both trace
// regimes: Spec materialises stable traces only, while the dynamic case
// mirrors WithDynamicNetwork's highly fluctuating 40-100 Mbps links.
type objectiveCase struct {
	name string
	env  func() *sim.Env
}

func objectiveCases(seed int64) []objectiveCase {
	stable := DeviceGroups()[1].Spec(cnn.VGG16(), 200, seed)
	return []objectiveCase{
		{stable.Name, stable.Env},
		{"NanoX4-dyn40-100-yolov2", func() *sim.Env {
			devs := device.Fleet(device.Nano, device.Nano, device.Nano, device.Nano)
			net := &network.Network{Requester: network.DefaultLink(network.Stable(300, 60, seed+997))}
			for i := range devs {
				net.Providers = append(net.Providers, network.DefaultLink(network.Dynamic(40, 100, 60, seed+int64(i)*31)))
			}
			return &sim.Env{Model: cnn.YOLOv2(), Devices: device.AsModels(devs), Net: net}
		}},
	}
}

// FigObjective compares the latency-optimal planner against the
// throughput-optimal (IPS) planner across admission windows, on a stable
// and a highly dynamic trace case: each planner's strategy is streamed
// with every window and reported as sustained/steady IPS plus the
// latency distribution. The IPS planner trains against
// sim.ThroughputObjective at objWindow (default 4). Cases run on the
// budget's worker pool; rows are deterministic for any worker count.
func FigObjective(b Budget, windows []int, objWindow int) ([]ObjectiveRow, error) {
	if len(windows) == 0 {
		windows = DefaultWindows()
	}
	if objWindow <= 0 {
		objWindow = 4
	}
	cases := objectiveCases(b.Seed)
	perCase := make([][]ObjectiveRow, len(cases))
	err := runIndexed(len(cases), b.Workers(), func(ci int) error {
		c := cases[ci]
		env := c.env()
		planners := []struct {
			name string
			obj  sim.Objective
		}{
			{PlannerLatency, nil},
			{PlannerIPS, sim.ThroughputObjective{Window: objWindow}},
		}
		var rows []ObjectiveRow
		for _, pl := range planners {
			strat, err := Request{Budget: b, Alpha: 0.75, Objective: pl.obj}.Plan(env, nil, nil)
			if err != nil {
				return fmt.Errorf("experiments: objective sweep %s/%s: %w", c.name, pl.name, err)
			}
			for _, w := range windows {
				res, err := env.Serve(strat, pipelined(b.StreamImages, w))
				if err != nil {
					return fmt.Errorf("experiments: objective sweep %s/%s: %w", c.name, pl.name, err)
				}
				rows = append(rows, ObjectiveRow{
					Case:      c.name,
					Planner:   pl.name,
					Window:    w,
					IPS:       res.IPS,
					SteadyIPS: res.SteadyIPS,
					MeanLatMS: res.MeanLatMS,
					P95LatMS:  res.P95LatMS,
				})
			}
		}
		perCase[ci] = rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []ObjectiveRow
	for _, rows := range perCase {
		out = append(out, rows...)
	}
	return out, nil
}
