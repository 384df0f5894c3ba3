package sim

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"distredge/internal/device"
	"distredge/internal/strategy"
)

// Hashes of the three scenario families below, recorded from the three
// hand-written admission loops (pipelined, multi-tenant, churn) this
// package had before Serve replaced them, each folding exactly the fields
// its old result type carried. Every float is folded bit by bit, so a match
// means Serve performs the same float operations in the same order. The
// churn hash was recorded with PipelineResult.Batch normalised to the batch
// the replay modelled (1); the old engine reported 0 there.
const (
	goldenPipelineHash uint64 = 0xca095f75c39191dd
	goldenTenantsHash  uint64 = 0xfa98c1365546acb5
	goldenChurnHash    uint64 = 0xf078559840825e17
)

type goldenFold struct{ h hash.Hash64 }

func newGoldenFold() goldenFold { return goldenFold{fnv.New64a()} }

func (g goldenFold) u64(v uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	g.h.Write(b[:])
}
func (g goldenFold) int(v int)     { g.u64(uint64(int64(v))) }
func (g goldenFold) f64(v float64) { g.u64(math.Float64bits(v)) }
func (g goldenFold) str(s string)  { g.int(len(s)); g.h.Write([]byte(s)) }
func (g goldenFold) f64s(v []float64) {
	g.int(len(v)) // by content: nil and empty fold alike
	for _, x := range v {
		g.f64(x)
	}
}

// pipeline folds the fields a PipelineResult carries.
func (g goldenFold) pipeline(r PipelineResult) {
	g.int(r.Images)
	g.int(r.Window)
	g.int(r.Batch)
	g.f64(r.TotalSec)
	g.f64(r.IPS)
	g.f64(r.SteadyIPS)
	g.f64s(r.PerImageSec)
	g.f64(r.MeanLatMS)
	g.f64(r.P50LatMS)
	g.f64(r.P95LatMS)
	g.f64(r.MaxLatMS)
}

func (g goldenFold) tenants(ts []TenantResult) {
	g.int(len(ts))
	for _, tr := range ts {
		g.str(tr.Name)
		g.int(tr.Images)
		g.f64s(tr.PerImageSec)
		g.f64(tr.MeanLatMS)
		g.f64(tr.P50LatMS)
		g.f64(tr.P95LatMS)
		g.f64(tr.MaxLatMS)
	}
}

// oneTenant is the pipelined scenario most tests want: one tenant's images
// enqueued at the start, batching off, raw wire bytes, no fleet events.
func oneTenant(images, window int, start float64) Scenario {
	return Scenario{Tenants: []TenantSpec{{Images: images}}, Window: window, Batch: 1, Start: start}
}

func goldenEnvs(t *testing.T) []*Env {
	return []*Env{
		testEnv(150, device.Xavier, device.Nano, device.TX2, device.Nano),
		equivEnv(t, false), // time-varying traces
	}
}

func goldenServing(rng *rand.Rand) (window, batch int, wire, start float64) {
	window = 1 + rng.Intn(6)
	batch = rng.Intn(5) - 1 // -1 … 3
	wire = []float64{0, 1, 0.5, 0.25}[rng.Intn(4)]
	start = []float64{0, 9.25}[rng.Intn(2)]
	return
}

// goldenPipelineScenario: one tenant enqueued at the start, no events.
func goldenPipelineScenario(rng *rand.Rand) Scenario {
	sc := Scenario{Tenants: []TenantSpec{{Images: 5 + rng.Intn(36)}}}
	sc.Window, sc.Batch, sc.WireFrac, sc.Start = goldenServing(rng)
	return sc
}

// goldenTenantsScenario: 1-5 tenants, FIFO / WFQ, weights, tenant windows
// and late bursts, no events.
func goldenTenantsScenario(rng *rand.Rand) Scenario {
	var sc Scenario
	sc.Window, sc.Batch, sc.WireFrac, sc.Start = goldenServing(rng)
	sc.Policy = []string{"", AdmitFIFO, AdmitWFQ, AdmitWFQ}[rng.Intn(4)]
	for i, n := 0, 1+rng.Intn(5); i < n; i++ {
		ts := TenantSpec{
			Images: 1 + rng.Intn(12),
			Weight: []float64{0, 1, 2, 4}[rng.Intn(4)],
			Window: []int{0, 0, 1, 2}[rng.Intn(4)],
		}
		if rng.Intn(2) == 0 {
			ts.Name = fmt.Sprintf("t%d", i)
		}
		if rng.Intn(3) == 0 {
			ts.EnqueueSec = rng.Float64() * 2
		}
		sc.Tenants = append(sc.Tenants, ts)
	}
	return sc
}

// goldenChurnScenario: one tenant, batch 1, raw wire, 0-4 fleet events
// scattered (unsorted) over roughly the churn-free run, recover on / off,
// three re-plan charges, both re-planners.
func goldenChurnScenario(rng *rand.Rand, n int, horizon float64) Scenario {
	sc := Scenario{Tenants: []TenantSpec{{Images: 5 + rng.Intn(36)}}, Batch: 1}
	sc.Window = 1 + rng.Intn(6)
	sc.Start = []float64{0, 9.25}[rng.Intn(2)]
	dropped := -1
	for i, k := 0, rng.Intn(5); i < k; i++ {
		ev := ChurnEvent{
			At:     sc.Start + rng.Float64()*horizon*1.2,
			Kind:   ChurnKind(rng.Intn(3)),
			Device: rng.Intn(n),
		}
		switch ev.Kind {
		case DeviceDrop:
			dropped = ev.Device
		case DeviceJoin:
			if dropped >= 0 && rng.Intn(4) > 0 {
				ev.Device = dropped
			}
		case DeviceSlow:
			ev.Factor = 0.5 + rng.Float64()*3.5
		}
		sc.Events = append(sc.Events, ev)
	}
	recover := rng.Intn(4) > 0
	sc.ReplanSec = []float64{0, 0.05, 0.5}[rng.Intn(3)]
	sc.Replan = shareReplan
	if rng.Intn(2) == 0 {
		sc.Replan = latencyReplan
	}
	if !recover {
		sc.Replan = nil
	}
	return sc
}

func TestServeGoldens(t *testing.T) {
	envs := goldenEnvs(t)
	strat := func(rng *rand.Rand, env *Env) *strategy.Strategy {
		return randomStrategy(rng, env.Model, env.NumProviders())
	}

	t.Run("pipeline", func(t *testing.T) {
		rng := rand.New(rand.NewSource(101))
		g := newGoldenFold()
		for i := 0; i < 80; i++ {
			env := envs[i%2]
			s, sc := strat(rng, env), goldenPipelineScenario(rng)
			r, err := env.Serve(s, sc)
			if err != nil {
				t.Fatalf("scenario %d: %v", i, err)
			}
			g.pipeline(r.PipelineResult)
			// The one-tenant spelling is the same run.
			pr, err := env.PipelineStreamOpts(s, PipelineConfig{
				Images: sc.Tenants[0].Images, Window: sc.Window, Batch: sc.Batch, WireFrac: sc.WireFrac, Start: sc.Start,
			})
			if err != nil || !reflect.DeepEqual(pr, r.PipelineResult) {
				t.Fatalf("scenario %d: PipelineStreamOpts diverges from Serve (err %v)", i, err)
			}
		}
		if got := g.h.Sum64(); got != goldenPipelineHash {
			t.Errorf("pipeline family hash %#x, want %#x", got, goldenPipelineHash)
		}
	})

	t.Run("tenants", func(t *testing.T) {
		rng := rand.New(rand.NewSource(202))
		g := newGoldenFold()
		for i := 0; i < 80; i++ {
			env := envs[i%2]
			s, sc := strat(rng, env), goldenTenantsScenario(rng)
			r, err := env.Serve(s, sc)
			if err != nil {
				t.Fatalf("scenario %d: %v", i, err)
			}
			g.str(r.Policy)
			g.int(r.Window)
			g.f64(r.TotalSec)
			g.f64(r.IPS)
			g.tenants(r.Tenants)
		}
		if got := g.h.Sum64(); got != goldenTenantsHash {
			t.Errorf("tenants family hash %#x, want %#x", got, goldenTenantsHash)
		}
	})

	t.Run("churn", func(t *testing.T) {
		rng := rand.New(rand.NewSource(303))
		g := newGoldenFold()
		var failed, requeued int
		for i := 0; i < 400; i++ {
			env := envs[i%2]
			s := strat(rng, env)
			base, err := env.Serve(s, oneTenant(20, 4, 0))
			if err != nil {
				t.Fatalf("scenario %d: base: %v", i, err)
			}
			sc := goldenChurnScenario(rng, env.NumProviders(), base.TotalSec)
			r, err := env.Serve(s, sc)
			if err != nil {
				t.Fatalf("scenario %d: %v", i, err)
			}
			g.pipeline(r.PipelineResult)
			g.int(r.Completed)
			g.int(r.Failed)
			g.int(r.Recoveries)
			g.int(r.Requeued)
			g.f64(r.FailedAtSec)
			g.f64s(r.EventRecoverySec)
			failed += r.Failed
			requeued += r.Requeued
		}
		// The generator must reach the interesting branches.
		if failed == 0 || requeued == 0 {
			t.Fatalf("churn scripts too tame: %d failed images, %d requeued", failed, requeued)
		}
		if got := g.h.Sum64(); got != goldenChurnHash {
			t.Errorf("churn family hash %#x, want %#x", got, goldenChurnHash)
		}
	})
}
