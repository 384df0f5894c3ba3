package distredge

import (
	"reflect"
	"strings"
	"testing"

	"distredge/internal/sim"
)

func TestParseProviders(t *testing.T) {
	got, err := ParseProviders(" xavier:200, nano:50.5 ,pi3:10")
	if err != nil {
		t.Fatal(err)
	}
	want := []Provider{
		{Type: "xavier", BandwidthMbps: 200},
		{Type: "nano", BandwidthMbps: 50.5},
		{Type: "pi3", BandwidthMbps: 10},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d providers, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("provider %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestParseProvidersErrors(t *testing.T) {
	cases := []struct {
		name, spec, wantErr string
	}{
		{"empty", "", "empty provider spec"},
		{"blank", "   ", "empty provider spec"},
		{"missing bandwidth", "xavier", "want type:bandwidthMbps"},
		{"extra colon", "xavier:200:50", "want type:bandwidthMbps"},
		{"empty type", ":200", "empty device type"},
		{"bad number", "xavier:fast", "bad bandwidth"},
		{"zero bandwidth", "xavier:0", "must be a positive"},
		{"negative bandwidth", "xavier:-5", "must be a positive"},
		{"nan bandwidth", "xavier:NaN", "must be a positive"},
		{"absurd bandwidth", "xavier:1e300", "must be a positive"},
		{"bad middle element", "xavier:200,,nano:100", "want type:bandwidthMbps"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ParseProviders(c.spec); err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("ParseProviders(%q) = %v, want error containing %q", c.spec, err, c.wantErr)
			}
		})
	}
}

func TestParseChurn(t *testing.T) {
	events, err := ParseChurn("drop:1@2.5, slow:2x3@4 ,join:1@8")
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("parsed %d events, want 3", len(events))
	}
	if e := events[0]; e.Kind != "drop" || e.Device != 1 || e.AtSec != 2.5 {
		t.Errorf("event 0 = %+v", e)
	}
	if e := events[1]; e.Kind != "slow" || e.Device != 2 || e.Factor != 3 || e.AtSec != 4 {
		t.Errorf("event 1 = %+v", e)
	}
	if e := events[2]; e.Kind != "join" || e.Device != 1 || e.AtSec != 8 {
		t.Errorf("event 2 = %+v", e)
	}
	// Empty spec means "no churn", not an error.
	if events, err := ParseChurn("  "); err != nil || events != nil {
		t.Errorf("blank spec = %v, %v; want nil, nil", events, err)
	}
}

func TestParseChurnErrors(t *testing.T) {
	cases := []struct {
		name, spec, wantErr string
	}{
		{"no kind", "1@2.5", "want kind:dev@t"},
		{"no time", "drop:1", "missing @time"},
		{"bad time", "drop:1@soon", "bad time"},
		{"negative time", "drop:1@-2", "negative time"},
		{"nan time", "drop:1@NaN", "negative time"},
		{"infinite time", "drop:1@inf", "finite, non-negative time"},
		{"spelled-out infinite time", "join:0@+Infinity", "finite, non-negative time"},
		{"bad device", "drop:one@2", "bad device"},
		{"negative device", "drop:-1@2", "negative device"},
		{"slow without factor", "slow:2@4", "needs devxfactor"},
		{"bad factor", "slow:2xfast@4", "bad factor"},
		{"zero factor", "slow:2x0@4", "must be positive"},
		{"negative factor", "slow:2x-3@4", "must be positive"},
		{"infinite factor", "slow:1xinf@2", "must be positive and finite"},
		{"nan factor", "slow:1xNaN@2", "must be positive and finite"},
		{"duplicate event", "drop:1@2.5,drop:1@2.5", "duplicate churn event"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ParseChurn(c.spec); err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("ParseChurn(%q) = %v, want error containing %q", c.spec, err, c.wantErr)
			}
		})
	}
	// The same (kind, device) at different times is legitimate churn.
	if _, err := ParseChurn("drop:1@2,join:1@4,drop:1@6"); err != nil {
		t.Errorf("repeated kind+device at different times must parse: %v", err)
	}
}

func TestParseTransport(t *testing.T) {
	for spec, wantName := range map[string]string{
		"":                  "tcp+binary",
		"tcp":               "tcp+binary",
		"tcp+sync":          "tcp+binary+sync",
		"tcp+deflate":       "tcp+deflate",
		"tcp+quant":         "tcp+quant8",
		"tcp+quant16":       "tcp+quant16",
		"tcp+quant+deflate": "tcp+quant8+deflate",
		"inproc":            "inproc",
	} {
		tr, err := ParseTransport(spec)
		if err != nil {
			t.Errorf("ParseTransport(%q): %v", spec, err)
			continue
		}
		if tr.Name() != wantName {
			t.Errorf("ParseTransport(%q).Name() = %q, want %q", spec, tr.Name(), wantName)
		}
	}
	if _, err := ParseTransport("carrier-pigeon"); err == nil || !strings.Contains(err.Error(), "unknown transport") {
		t.Errorf("unknown transport = %v, want error", err)
	}
}

func TestParseObjective(t *testing.T) {
	for spec, want := range map[string]Objective{
		"":        ObjectiveLatency,
		"latency": ObjectiveLatency,
		" ips ":   ObjectiveIPS,
	} {
		got, err := ParseObjective(spec)
		if err != nil {
			t.Errorf("ParseObjective(%q): %v", spec, err)
			continue
		}
		if got != want {
			t.Errorf("ParseObjective(%q) = %q, want %q", spec, got, want)
		}
	}
	if _, err := ParseObjective("goodput"); err == nil || !strings.Contains(err.Error(), "unknown objective") {
		t.Errorf("unknown objective = %v, want error", err)
	}
}

func TestParseTenants(t *testing.T) {
	got, err := ParseTenants(" heavy:24x1, small:4x4 ,plain:2")
	if err != nil {
		t.Fatal(err)
	}
	want := []sim.TenantSpec{
		{Name: "heavy", Images: 24, Weight: 1},
		{Name: "small", Images: 4, Weight: 4},
		{Name: "plain", Images: 2, Weight: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ParseTenants = %+v, want %+v", got, want)
	}
	cases := []struct {
		name, spec, wantErr string
	}{
		{"empty", " ", "empty tenant spec"},
		{"no name", ":4", "want name:IMAGESxWEIGHT"},
		{"duplicate", "a:1,a:2", "duplicate tenant"},
		{"bad images", "a:many", "bad image count"},
		{"no images", "a:0", "at least one image"},
		{"bad weight", "a:4xheavy", "bad weight"},
		{"zero weight", "a:4x0", "must be positive"},
		{"negative weight", "a:4x-1", "must be positive"},
		{"nan weight", "a:4xNaN", "must be positive"},
		// 1/Inf = 0 makes a tenant free under WFQ; 1/1e-320 = +Inf parks it
		// forever after its first admission.
		{"infinite weight", "a:4xInf", "finite 1/weight"},
		{"denormal weight", "a:4x1,b:4x1e-320", "finite 1/weight"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ParseTenants(c.spec); err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("ParseTenants(%q) = %v, want error containing %q", c.spec, err, c.wantErr)
			}
		})
	}
}
