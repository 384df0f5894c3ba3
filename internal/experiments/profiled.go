package experiments

import (
	"fmt"

	"distredge/internal/device"
	"distredge/internal/sim"
)

// ProfileForm names one of the profile representations Section IV allows:
// "DistrEdge allows various forms to express the profiling results of a
// device. It can be regression models (e.g., linear regression, piece-wise
// linear regression, k-nearest-neighbor) or a measured data table."
type ProfileForm string

// The profile forms of Section IV.
const (
	FormTable     ProfileForm = "table"
	FormLinear    ProfileForm = "linear"
	FormPiecewise ProfileForm = "piecewise"
	FormKNN       ProfileForm = "knn"
)

// ProfileForms lists all supported forms.
func ProfileForms() []ProfileForm {
	return []ProfileForm{FormTable, FormLinear, FormPiecewise, FormKNN}
}

// ProfiledEnv returns a copy of the environment whose devices are replaced
// by the given profile form, fit from noisy measurements of the real
// devices — the controller's view during planning. FC layers (one
// configuration point each) keep the measured device as fallback, exactly
// as a profiler would pin single-point measurements.
func ProfiledEnv(env *sim.Env, pr device.Profiler, form ProfileForm) (*sim.Env, error) {
	models := make([]device.LatencyModel, len(env.Devices))
	for i, d := range env.Devices {
		curves := pr.Measure(d, env.Model)
		switch form {
		case FormTable:
			models[i] = device.NewTableModel(curves, d)
		case FormLinear:
			models[i] = device.FitLinear(curves)
		case FormPiecewise:
			models[i] = device.FitPiecewiseLinear(curves, 4, d)
		case FormKNN:
			models[i] = device.FitKNN(curves, 3, 2, d)
		default:
			return nil, fmt.Errorf("experiments: unknown profile form %q", form)
		}
		pr.Seed++ // distinct measurement noise per device
	}
	return env.WithDevices(models), nil
}

// ProfiledPlanResult reports planning-on-profiles vs executing-on-hardware.
type ProfiledPlanResult struct {
	Form        ProfileForm
	PlannedIPS  float64 // what the controller predicted from the profiles
	ExecutedIPS float64 // what the true devices deliver
}

// PlanOnProfiles runs the paper's actual deployment workflow: the
// controller plans (LC-PSS + OSDS) against the *profiled* view of the
// devices, then the strategy executes on the true hardware models. The gap
// between PlannedIPS and ExecutedIPS measures the profile form's fidelity.
func PlanOnProfiles(env *sim.Env, b Budget, form ProfileForm) (ProfiledPlanResult, error) {
	pr := device.Profiler{Repeats: 20, Noise: 0.02, Seed: b.Seed}
	planView, err := ProfiledEnv(env, pr, form)
	if err != nil {
		return ProfiledPlanResult{}, err
	}
	strat, err := Request{Budget: b, Alpha: 0.75}.Plan(planView, nil, nil)
	if err != nil {
		return ProfiledPlanResult{}, err
	}
	planned, err := planView.Stream(strat, b.StreamImages, 0)
	if err != nil {
		return ProfiledPlanResult{}, err
	}
	executed, err := env.Stream(strat, b.StreamImages, 0)
	if err != nil {
		return ProfiledPlanResult{}, err
	}
	return ProfiledPlanResult{
		Form:        form,
		PlannedIPS:  planned.IPS,
		ExecutedIPS: executed.IPS,
	}, nil
}
