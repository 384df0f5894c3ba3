package experiments

import (
	"math"
	"testing"

	"distredge/internal/cnn"
	"distredge/internal/device"
)

func TestProfiledEnvForms(t *testing.T) {
	env := DeviceGroups()[1].Spec(cnn.VGG16(), 100, 1).Env()
	pr := device.Profiler{Repeats: 5, Noise: 0.02, Seed: 1}
	for _, form := range ProfileForms() {
		view, err := ProfiledEnv(env, pr, form)
		if err != nil {
			t.Fatalf("%s: %v", form, err)
		}
		if len(view.Devices) != len(env.Devices) {
			t.Fatalf("%s: device count changed", form)
		}
		// The profiled view must predict latencies in the right ballpark
		// for a mid-size layer (linear regression is the loosest form).
		l := env.Model.SplittableLayers()[4]
		truth := env.Devices[0].ComputeLatency(l, 50)
		got := view.Devices[0].ComputeLatency(l, 50)
		tol := 0.35
		if form == FormLinear {
			tol = 3.0 // a single global line across all layers is crude
		}
		if math.Abs(got-truth) > tol*truth {
			t.Errorf("%s: predicted %g vs truth %g", form, got, truth)
		}
	}
	if _, err := ProfiledEnv(env, pr, ProfileForm("psychic")); err == nil {
		t.Error("unknown form must error")
	}
}

func TestPlanOnProfilesTableClosesToTruth(t *testing.T) {
	// Planning on an accurate (table) profile must execute on the true
	// hardware at nearly the predicted throughput, and the executed result
	// must stay competitive with planning directly on the truth.
	b := Tiny()
	env := DeviceGroups()[1].Spec(cnn.VGG16(), 50, 1).Env()
	res, err := PlanOnProfiles(env, b, FormTable)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecutedIPS <= 0 || res.PlannedIPS <= 0 {
		t.Fatalf("bad result %+v", res)
	}
	gap := math.Abs(res.PlannedIPS-res.ExecutedIPS) / res.ExecutedIPS
	if gap > 0.10 {
		t.Errorf("table-profile prediction gap %.0f%% too large (planned %.2f, executed %.2f)",
			gap*100, res.PlannedIPS, res.ExecutedIPS)
	}

	direct, err := Request{Budget: b, Alpha: 0.75}.Plan(env, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	directRes, err := env.Stream(direct, b.StreamImages, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecutedIPS < 0.85*directRes.IPS {
		t.Errorf("profile-planned %.2f IPS far below truth-planned %.2f IPS", res.ExecutedIPS, directRes.IPS)
	}
}

func TestPlanOnProfilesLinearIsWorstForm(t *testing.T) {
	// The linear profile form embodies exactly the assumption the paper
	// attacks; planning on it must not beat planning on the table form.
	if testing.Short() {
		t.Skip("profile-form sweep in short mode")
	}
	b := Tiny()
	env := DeviceGroups()[1].Spec(cnn.VGG16(), 50, 1).Env()
	table, err := PlanOnProfiles(env, b, FormTable)
	if err != nil {
		t.Fatal(err)
	}
	linear, err := PlanOnProfiles(env, b, FormLinear)
	if err != nil {
		t.Fatal(err)
	}
	if linear.ExecutedIPS > table.ExecutedIPS*1.1 {
		t.Errorf("linear-profile planning (%.2f) beat table planning (%.2f)",
			linear.ExecutedIPS, table.ExecutedIPS)
	}
}
