package sim

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"distredge/internal/cnn"
	"distredge/internal/device"
	"distredge/internal/network"
	"distredge/internal/strategy"
)

// randomBoundaries returns sorted volume boundaries over the model's
// splittable layers, volumes of them.
func randomBoundaries(rng *rand.Rand, m *cnn.Model, volumes int) []int {
	inner := rng.Perm(m.NumSplittable() - 1)[:volumes-1]
	b := []int{0, m.NumSplittable()}
	for _, x := range inner {
		b = append(b, x+1)
	}
	slices.Sort(b)
	return b
}

// randomCuts fills cuts with sorted cut points on a height-h volume; equal
// neighbours leave a provider idle.
func randomCuts(rng *rand.Rand, cuts []int, h int) {
	for i := range cuts {
		cuts[i] = rng.Intn(h + 1)
	}
	slices.Sort(cuts)
}

// randomSplits gives s one random cut list per volume of its boundaries.
func randomSplits(rng *rand.Rand, m *cnn.Model, s *strategy.Strategy, n int) {
	s.Splits = make([][]int, len(s.Boundaries)-1)
	for v := range s.Splits {
		s.Splits[v] = make([]int, n-1)
		randomCuts(rng, s.Splits[v], strategy.VolumeHeight(m, s.Boundaries, v))
	}
}

// moveCut moves one random cut of volume v to a random row between its
// neighbours.
func moveCut(rng *rand.Rand, m *cnn.Model, s *strategy.Strategy, v int) {
	cuts := s.Splits[v]
	if len(cuts) == 0 {
		return
	}
	ci := rng.Intn(len(cuts))
	lo, hi := 0, strategy.VolumeHeight(m, s.Boundaries, v)
	if ci > 0 {
		lo = cuts[ci-1]
	}
	if ci+1 < len(cuts) {
		hi = cuts[ci+1]
	}
	cuts[ci] = lo + rng.Intn(hi-lo+1)
}

// TestRecompileMatchesCompile: a plan recompiled in place over chains of
// edits to one strategy — one-cut moves, moves in two volumes, restores of
// an earlier strategy, a boundary change and a volume-count change — holds
// exactly what a fresh Compile of the edited strategy holds: the same
// latency and breakdown at several trace instants, the same Timeline
// events, the same pipelined run (24 images, window 4, batch 2, half the
// wire bytes) and a geometry reflect.DeepEqual to CompileGeometry's. An
// invalid edit fails and leaves the plan replaying the strategy before it.
// The envs are vgg16 on 4 providers (an FC tail) and yolov2 on 6 (fully
// convolutional), both over time-varying traces.
func TestRecompileMatchesCompile(t *testing.T) {
	fleets := []struct {
		model *cnn.Model
		types []device.Type
	}{
		{cnn.VGG16(), []device.Type{device.Xavier, device.Nano, device.TX2, device.Nano}},
		{cnn.YOLOv2(), []device.Type{device.Xavier, device.Nano, device.TX2, device.Nano, device.Xavier, device.TX2}},
	}
	cfg := PipelineConfig{Images: 24, Window: 4, Batch: 2, WireFrac: 0.5}
	for fi, f := range fleets {
		n := len(f.types)
		bws := make([]float64, n)
		for i := range bws {
			bws[i] = 100 + 50*float64(i%3)
		}
		net := network.NewStable(bws, 10, int64(fi))
		newEnv := func() *Env {
			return &Env{Model: f.model, Devices: device.AsModels(device.Fleet(f.types...)), Net: net}
		}
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			m := f.model
			s := &strategy.Strategy{Boundaries: randomBoundaries(rng, m, 3+rng.Intn(4))}
			randomSplits(rng, m, s, n)
			env := newEnv()
			p, err := Compile(env, s)
			if err != nil {
				t.Fatal(err)
			}
			check := func(edit string, want *strategy.Strategy) {
				t.Helper()
				fresh, err := Compile(newEnv(), want.Clone())
				if err != nil {
					t.Fatal(err)
				}
				for _, at := range []float64{0, 0.7, 13.25, 299.9} {
					got, gotBD := p.run(at)
					gotBD = gotBD.clone()
					wantLat, wantBD := fresh.run(at)
					if math.Float64bits(got) != math.Float64bits(wantLat) || !reflect.DeepEqual(gotBD, wantBD) {
						t.Fatalf("%s (seed %d, %s): latency at %g is %.17g %v, a fresh compile's %.17g %v",
							m.Name, seed, edit, at, got, gotBD, wantLat, wantBD)
					}
					var gotEv, wantEv []Event
					p.replay(at, p.idleState(), &gotEv)
					fresh.replay(at, fresh.idleState(), &wantEv)
					if !reflect.DeepEqual(gotEv, wantEv) {
						t.Fatalf("%s (seed %d, %s): timeline at %g differs from a fresh compile's", m.Name, seed, edit, at)
					}
				}
				geo, err := strategy.CompileGeometry(m, want, n)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(&p.geo, geo) {
					t.Fatalf("%s (seed %d, %s): the recompiled geometry differs from CompileGeometry's", m.Name, seed, edit)
				}
				// Pipeline the plan through the env's memo, which holds it alone.
				env.checkinPlan(p)
				gotPipe, err := env.PipelineStreamOpts(want, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if back, err := env.checkoutPlan(want); err != nil || back != p {
					t.Fatalf("%s (seed %d, %s): the memo did not hand the plan back (%v)", m.Name, seed, edit, err)
				}
				wantPipe, err := newEnv().PipelineStreamOpts(want.Clone(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotPipe, wantPipe) {
					t.Fatalf("%s (seed %d, %s): pipelined\n%+v\na fresh compile's\n%+v", m.Name, seed, edit, gotPipe, wantPipe)
				}
			}
			recompile := func(edit string) {
				t.Helper()
				if err := p.compile(s); err != nil {
					t.Fatalf("%s (seed %d, %s): %v", m.Name, seed, edit, err)
				}
				check(edit, s)
			}
			check("compile", s)
			saved := s.Clone()
			for step := 0; step < 40; step++ {
				vols := s.NumVolumes()
				switch k := step % 10; {
				case k < 5:
					moveCut(rng, m, s, rng.Intn(vols))
					recompile("one-cut move")
				case k < 7:
					v := rng.Intn(vols)
					moveCut(rng, m, s, v)
					moveCut(rng, m, s, (v+1+rng.Intn(vols-1))%vols)
					recompile("two-volume move")
				case k == 7:
					for v := range s.Splits {
						copy(s.Splits[v], saved.Splits[v])
					}
					recompile("restore")
					saved = s.Clone()
				case k == 8:
					prev := s.Clone()
					v := rng.Intn(vols)
					old := s.Splits[v][len(s.Splits[v])-1]
					s.Splits[v][len(s.Splits[v])-1] = strategy.VolumeHeight(m, s.Boundaries, v) + 1
					if err := p.compile(s); err == nil {
						t.Fatalf("%s (seed %d): an out-of-range cut compiled", m.Name, seed)
					}
					check("invalid", prev)
					s.Splits[v][len(s.Splits[v])-1] = old
					recompile("after invalid")
				case step%20 == 9:
					// A boundary change at the same volume count.
					b := randomBoundaries(rng, m, vols)
					for slices.Equal(b, s.Boundaries) {
						b = randomBoundaries(rng, m, vols)
					}
					s.Boundaries = b
					randomSplits(rng, m, s, n)
					recompile("boundary change")
					saved = s.Clone()
				default:
					s.Boundaries = randomBoundaries(rng, m, vols%6+2)
					randomSplits(rng, m, s, n)
					recompile("volume-count change")
					saved = s.Clone()
				}
			}
		}
	}
}
