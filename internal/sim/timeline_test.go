package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"distredge/internal/cnn"
	"distredge/internal/device"
	"distredge/internal/strategy"
)

func timelineFixture(t *testing.T) (*Env, *strategy.Strategy) {
	t.Helper()
	env := testEnv(100, device.Xavier, device.Nano, device.TX2, device.Nano)
	s := equalSplitStrategy(env.Model, strategy.PoolBoundaries(env.Model), 4)
	return env, s
}

func TestTimelineMatchesLatency(t *testing.T) {
	env, s := timelineFixture(t)
	want, _, err := env.Latency(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	events, total, err := env.Timeline(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if total != want {
		t.Fatalf("timeline total %.17g != latency %.17g", total, want)
	}
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	// The last event must end exactly at the total.
	maxEnd := 0.0
	for _, ev := range events {
		if ev.End > maxEnd {
			maxEnd = ev.End
		}
	}
	if maxEnd != total {
		t.Errorf("max event end %.17g != total %.17g", maxEnd, total)
	}
}

// randomStrategy draws a valid strategy uniformly-ish: random volume
// boundaries, random sorted cut points (empty parts included).
func randomStrategy(rng *rand.Rand, m *cnn.Model, n int) *strategy.Strategy {
	nl := m.NumSplittable()
	b := []int{0}
	for l := 1; l < nl; l++ {
		if rng.Float64() < 0.25 {
			b = append(b, l)
		}
	}
	b = append(b, nl)
	s := &strategy.Strategy{Boundaries: b}
	for v := 0; v+1 < len(b); v++ {
		h := strategy.VolumeHeight(m, b, v)
		cuts := make([]int, n-1)
		for i := range cuts {
			cuts[i] = rng.Intn(h + 1)
		}
		sort.Ints(cuts)
		s.Splits = append(s.Splits, cuts)
	}
	return s
}

// TestTimelinePropertyMatchesLatency is the property test: for random
// strategies on constant and time-varying networks, the final Timeline
// event's End must equal the compiled-path Latency and the reference
// per-image derivation bit-for-bit.
func TestTimelinePropertyMatchesLatency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	envs := []*Env{
		testEnv(150, device.Xavier, device.Nano, device.TX2, device.Nano),
		equivEnv(t, false), // stable (time-varying) traces
	}
	for ei, env := range envs {
		for iter := 0; iter < 30; iter++ {
			s := randomStrategy(rng, env.Model, env.NumProviders())
			for _, at := range []float64{0, 12.75} {
				want, _, err := env.Latency(s, at)
				if err != nil {
					t.Fatalf("env %d iter %d: latency: %v", ei, iter, err)
				}
				ref, _, err := env.ReferenceLatency(s, at)
				if err != nil {
					t.Fatalf("env %d iter %d: reference: %v", ei, iter, err)
				}
				if want != ref {
					t.Fatalf("env %d iter %d: compiled %.17g != reference %.17g", ei, iter, want, ref)
				}
				events, total, err := env.Timeline(s, at)
				if err != nil {
					t.Fatalf("env %d iter %d: timeline: %v", ei, iter, err)
				}
				if total != want {
					t.Errorf("env %d iter %d at %g: timeline total %.17g != latency %.17g",
						ei, iter, at, total, want)
				}
				var maxEnd float64
				for _, ev := range events {
					if ev.End > maxEnd {
						maxEnd = ev.End
					}
				}
				if maxEnd != total {
					t.Errorf("env %d iter %d: final event end %.17g != total %.17g", ei, iter, maxEnd, total)
				}
			}
		}
	}
}

// goldenTimelineSHA256 is the SHA-256 of every event list the golden test
// below formats, recorded from the Timeline that ran its own copy of the
// per-image schedule before it became a replay with an event sink. %.17g
// round-trips a float64, so a match means the same events, in the same
// order, with bit-identical times.
const goldenTimelineSHA256 = "bedd9eeca84d35a4cd74126d7b1f88f9c5d844bc482c46c32036ea4a9dda3772"

// TestTimelineEventsGolden pins the full event list, not just its total:
// the fixture's strategy plus 10 random draws on the fixture's constant
// network and on a time-varying one, each at t=0 and t=12.75.
func TestTimelineEventsGolden(t *testing.T) {
	fixEnv, fixS := timelineFixture(t)
	h := sha256.New()
	rng := rand.New(rand.NewSource(29))
	for ei, env := range []*Env{fixEnv, equivEnv(t, false)} {
		var strats []*strategy.Strategy
		if ei == 0 {
			strats = append(strats, fixS)
		}
		for range 10 {
			strats = append(strats, randomStrategy(rng, env.Model, env.NumProviders()))
		}
		for si, s := range strats {
			for _, at := range []float64{0, 12.75} {
				events, total, err := env.Timeline(s, at)
				if err != nil {
					t.Fatalf("env %d strategy %d at %g: %v", ei, si, at, err)
				}
				fmt.Fprintf(h, "env %d strategy %d at %g total %.17g\n", ei, si, at, total)
				for _, ev := range events {
					fmt.Fprintf(h, "%d %d %s %.17g %.17g\n", ev.Device, ev.Volume, ev.Kind, ev.Start, ev.End)
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenTimelineSHA256 {
		t.Errorf("timeline events hash %s, want %s", got, goldenTimelineSHA256)
	}
}

func TestTimelineEventInvariants(t *testing.T) {
	env, s := timelineFixture(t)
	events, _, err := env.Timeline(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	computeByDev := map[int][]Event{}
	for _, ev := range events {
		if ev.End < ev.Start {
			t.Fatalf("event ends before it starts: %+v", ev)
		}
		if ev.Start < 0 {
			t.Fatalf("negative start: %+v", ev)
		}
		if ev.Kind == EventCompute {
			computeByDev[ev.Device] = append(computeByDev[ev.Device], ev)
		}
	}
	// Compute events on one device must not overlap (a device is serial).
	for dev, evs := range computeByDev {
		for i := 1; i < len(evs); i++ {
			if evs[i].Start < evs[i-1].End-1e-12 {
				t.Errorf("device %d compute events overlap: %+v then %+v", dev, evs[i-1], evs[i])
			}
		}
	}
}

func TestTimelineHasAllPhases(t *testing.T) {
	env, s := timelineFixture(t)
	events, _, err := env.Timeline(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[EventKind]bool{}
	for _, ev := range events {
		kinds[ev.Kind] = true
	}
	for _, k := range []EventKind{EventScatter, EventCompute, EventFC, EventResult} {
		if !kinds[k] {
			t.Errorf("missing %s events", k)
		}
	}
	// Equal split across pool boundaries needs halo transfers.
	if !kinds[EventRecv] {
		t.Error("missing recv events")
	}
}

func TestTimelineRejectsInvalid(t *testing.T) {
	env, _ := timelineFixture(t)
	bad := &strategy.Strategy{Boundaries: []int{0, 3}}
	if _, _, err := env.Timeline(bad, 0); err == nil {
		t.Fatal("invalid strategy must be rejected")
	}
}

func TestRenderTimeline(t *testing.T) {
	env, s := timelineFixture(t)
	events, total, err := env.Timeline(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderTimeline(events, total, 60)
	if !strings.Contains(out, "dev  0") || !strings.Contains(out, "#") {
		t.Errorf("render missing content:\n%s", out)
	}
	if !strings.Contains(out, "total") {
		t.Error("render missing total line")
	}
	if RenderTimeline(nil, 0, 60) != "" {
		t.Error("empty timeline must render empty")
	}
}
