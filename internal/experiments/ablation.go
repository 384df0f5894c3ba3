package experiments

import (
	"fmt"

	"distredge/internal/baselines"
	"distredge/internal/cnn"
	"distredge/internal/device"
	"distredge/internal/sim"
	"distredge/internal/splitter"
	"distredge/internal/strategy"
)

// This file holds ablations of the design choices DESIGN.md calls out.
// They are not paper figures; they justify the reproduction's engineering
// decisions and probe the paper's causal story.

// AblationNonlinearity tests the paper's core causal claim: DistrEdge's
// advantage over the linear-model baselines comes from the *nonlinear*
// device character. It plans DistrEdge and AOFL on (a) the true staircase
// devices and (b) "linearised" twins (wave width forced to 1 row, same peak
// rate), and returns the DistrEdge/AOFL speedup in both worlds. If the
// paper's story holds, StaircaseSpeedup > LinearSpeedup.
type AblationNonlinearityResult struct {
	StaircaseSpeedup float64
	LinearSpeedup    float64
}

// linearise returns a copy of the fleet with the wave quantisation removed
// (profiles keep their peak rate but lose the staircase).
func linearise(models []device.LatencyModel) []device.LatencyModel {
	out := make([]device.LatencyModel, len(models))
	for i, m := range models {
		if p, ok := m.(device.Profile); ok {
			p.Tile = 1
			out[i] = p
		} else {
			out[i] = m
		}
	}
	return out
}

// AblationNonlinearity runs the nonlinearity ablation on Group DB at the
// given bandwidth.
func AblationNonlinearity(b Budget, bwMbps float64) (AblationNonlinearityResult, error) {
	spec := DeviceGroups()[1].Spec(cnn.VGG16(), bwMbps, b.Seed)
	speedup := func(env *sim.Env) (float64, error) {
		de, err := Request{Budget: b, Alpha: 0.75}.Plan(env, nil, nil)
		if err != nil {
			return 0, err
		}
		ao, err := baselines.Plan(baselines.AOFL, env)
		if err != nil {
			return 0, err
		}
		deRes, err := env.Stream(de, b.StreamImages, 0)
		if err != nil {
			return 0, err
		}
		aoRes, err := env.Stream(ao, b.StreamImages, 0)
		if err != nil {
			return 0, err
		}
		return deRes.IPS / aoRes.IPS, nil
	}

	stairEnv := spec.Env()
	stair, err := speedup(stairEnv)
	if err != nil {
		return AblationNonlinearityResult{}, err
	}
	linEnv := spec.Env()
	linEnv.Devices = linearise(linEnv.Devices)
	lin, err := speedup(linEnv)
	if err != nil {
		return AblationNonlinearityResult{}, err
	}
	return AblationNonlinearityResult{StaircaseSpeedup: stair, LinearSpeedup: lin}, nil
}

// AblationWarmStartResult compares OSDS with and without the profile-guided
// warm-start episodes (our engineering addition) at the same budget.
type AblationWarmStartResult struct {
	WithWarmStartIPS    float64
	WithoutWarmStartIPS float64
}

// AblationWarmStart runs the warm-start ablation on Group DB at 50 Mbps.
func AblationWarmStart(b Budget) (AblationWarmStartResult, error) {
	spec := DeviceGroups()[1].Spec(cnn.VGG16(), 50, b.Seed)
	env := spec.Env()
	boundaries, err := LCPSS(env, b, 0.75)
	if err != nil {
		return AblationWarmStartResult{}, err
	}
	run := func(warm bool) (float64, error) {
		cfg := osdsConfig(b, env.NumProviders())
		cfg.WarmStart = warm
		res, err := splitter.Search(env, boundaries, cfg)
		if err != nil {
			return 0, err
		}
		stream, err := env.Stream(res.Strategy, b.StreamImages, 0)
		if err != nil {
			return 0, err
		}
		return stream.IPS, nil
	}
	with, err := run(true)
	if err != nil {
		return AblationWarmStartResult{}, err
	}
	without, err := run(false)
	if err != nil {
		return AblationWarmStartResult{}, err
	}
	return AblationWarmStartResult{WithWarmStartIPS: with, WithoutWarmStartIPS: without}, nil
}

// AblationPartitionRow is OSDS performance over one fixed partition family.
type AblationPartitionRow struct {
	Partition string
	Volumes   int
	IPS       float64
}

// AblationPartition isolates LC-PSS's contribution: the same OSDS splitter
// is trained over the LC-PSS scheme and three fixed alternatives
// (single volume, pool boundaries, layer-by-layer) on Group DB at 50 Mbps.
func AblationPartition(b Budget) ([]AblationPartitionRow, error) {
	spec := DeviceGroups()[1].Spec(cnn.VGG16(), 50, b.Seed)
	env := spec.Env()
	lcpss, err := LCPSS(env, b, 0.75)
	if err != nil {
		return nil, err
	}
	families := []struct {
		name       string
		boundaries []int
	}{
		{"lc-pss", lcpss},
		{"single-volume", strategy.SingleVolume(env.Model)},
		{"pool-boundaries", strategy.PoolBoundaries(env.Model)},
		{"layer-by-layer", strategy.LayerByLayer(env.Model)},
	}
	var rows []AblationPartitionRow
	for _, f := range families {
		res, err := splitter.Search(env, f.boundaries, osdsConfig(b, env.NumProviders()))
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", f.name, err)
		}
		stream, err := env.Stream(res.Strategy, b.StreamImages, 0)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationPartitionRow{
			Partition: f.name,
			Volumes:   len(f.boundaries) - 1,
			IPS:       stream.IPS,
		})
	}
	return rows, nil
}
