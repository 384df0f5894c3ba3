package main

import (
	"fmt"

	"distredge"
	"distredge/internal/cnn"
	"distredge/internal/device"
	"distredge/internal/experiments"
	"distredge/internal/sim"
)

// mirrorEnv rebuilds the simulator environment distredge.New builds for the
// same model, providers and seed (stable 60-minute traces). The System keeps
// its own private; the benchmark needs an equal one to compile a plan's
// step counts (runtime.BuildPlan), to drive the plan-cache service directly
// in the traced planning pass, and to time the simulator and planner layers.
func mirrorEnv(model string, provs []distredge.Provider, seed int64) (*sim.Env, error) {
	m, ok := cnn.Zoo()[model]
	if !ok {
		return nil, fmt.Errorf("unknown model %q", model)
	}
	spec := experiments.Spec{Model: m, TraceMinutes: 60, Seed: seed}
	for _, p := range provs {
		spec.Types = append(spec.Types, device.Type(p.Type))
		spec.BandwidthsMbps = append(spec.BandwidthsMbps, p.BandwidthMbps)
	}
	return spec.Env(), nil
}

// commonEnv is mirrorEnv for the serving workloads' model and fleet.
func commonEnv() (*sim.Env, error) {
	provs, err := distredge.ParseProviders(commonFleet)
	if err != nil {
		return nil, err
	}
	return mirrorEnv(commonModel, provs, plannerSeed)
}

// effortBudget maps a public planning effort to the budget Plan and
// PlanCached use for it.
func effortBudget(e distredge.Effort) (experiments.Budget, error) {
	switch e {
	case distredge.EffortTiny:
		return experiments.Tiny(), nil
	case distredge.EffortQuick:
		return experiments.Quick(), nil
	default:
		return experiments.Budget{}, fmt.Errorf("benchmark plans at effort tiny or quick, not %q", e)
	}
}
