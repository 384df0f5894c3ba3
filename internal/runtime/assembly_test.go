package runtime

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// scanAssembler is the reference assembler deliver's dependency index
// replaces: it records every chunk's arrival in a per-image map and, on each
// arrival, scans every step's needs for the ones that just became complete.
type scanAssembler struct {
	steps     []Step
	arrived   map[uint32]map[chunkKey]instant
	scheduled map[uint32][]bool
	minImg    uint32
}

func (a *scanAssembler) deliver(ch Chunk, at instant) []workItem {
	img := ch.Image
	if img < a.minImg {
		return nil
	}
	if a.arrived[img] == nil {
		a.arrived[img] = make(map[chunkKey]instant)
		a.scheduled[img] = make([]bool, len(a.steps))
	}
	a.arrived[img][chunkKey{int(ch.Volume), int(ch.Lo), int(ch.Hi)}] = at
	var ready []workItem
	for si, st := range a.steps {
		if a.scheduled[img][si] || len(st.Needs) == 0 {
			continue
		}
		all, latest := true, instant(math.MinInt64)
		for _, n := range st.Needs {
			t, ok := a.arrived[img][chunkKey{n.Volume, n.Lo, n.Hi}]
			if !ok {
				all = false
				break
			}
			latest = max(latest, t)
		}
		if all {
			a.scheduled[img][si] = true
			ready = append(ready, workItem{img: img, step: si, ready: latest})
		}
	}
	return ready
}

func (a *scanAssembler) gc(before uint32) {
	a.minImg = max(a.minImg, before)
	for img := range a.arrived {
		if img < a.minImg {
			delete(a.arrived, img)
			delete(a.scheduled, img)
		}
	}
}

// TestDeliverMatchesFullScan drives deliver and the reference full scan with
// the same seeded random plans and arrival orders — duplicate chunks, chunks
// no step needs, steps listing one need twice and steps with no needs among
// them, interleaved across images with collections in between — and
// requires the same (image, step, ready) sequence from both.
func TestDeliverMatchesFullScan(t *testing.T) {
	var dups, unneeded, twice, needless int
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := make([]Need, 2+rng.Intn(6))
		for i := range pool {
			lo := rng.Intn(8)
			pool[i] = Need{Volume: rng.Intn(3) - 1, Lo: lo, Hi: lo + 1 + rng.Intn(4)}
		}
		plan := ProviderPlan{Steps: make([]Step, 1+rng.Intn(12))}
		for si := range plan.Steps {
			if rng.Intn(8) == 0 {
				needless++
				continue
			}
			for range 1 + rng.Intn(3) {
				plan.Steps[si].Needs = append(plan.Steps[si].Needs, pool[rng.Intn(len(pool))])
			}
			if rng.Intn(6) == 0 {
				plan.Steps[si].Needs = append(plan.Steps[si].Needs, plan.Steps[si].Needs[0])
			}
			seen := map[Need]bool{}
			for _, n := range plan.Steps[si].Needs {
				if seen[n] {
					twice++
					break
				}
				seen[n] = true
			}
		}

		p := &Provider{plan: plan, asm: newAssembly(plan), work: newWorkQueue(), images: make(map[uint32]*imageState)}
		ref := &scanAssembler{steps: plan.Steps, arrived: map[uint32]map[chunkKey]instant{}, scheduled: map[uint32][]bool{}}
		type imgKey struct {
			img uint32
			key chunkKey
		}
		delivered := map[imgKey]bool{}
		for range 200 {
			if rng.Intn(40) == 0 {
				before := uint32(rng.Intn(6))
				p.gc(before)
				ref.gc(before)
				continue
			}
			n := pool[rng.Intn(len(pool))]
			if rng.Intn(10) == 0 {
				n = Need{Volume: 7, Lo: rng.Intn(4), Hi: 9} // no step needs volume 7
				unneeded++
			}
			ch := Chunk{Image: uint32(rng.Intn(6)), Volume: int32(n.Volume), Lo: int32(n.Lo), Hi: int32(n.Hi)}
			k := imgKey{ch.Image, chunkKey{n.Volume, n.Lo, n.Hi}}
			if delivered[k] {
				dups++
			}
			delivered[k] = true
			at := instant(rng.Intn(1000))
			want := ref.deliver(ch, at)
			p.deliver(ch, at)
			got := append([]workItem(nil), p.work.items...)
			p.work.items = p.work.items[:0]
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: delivering %+v at %d scheduled %+v, the full scan %+v", seed, ch, at, got, want)
			}
		}
	}
	if dups == 0 || unneeded == 0 || twice == 0 || needless == 0 {
		t.Fatalf("cases not covered: %d duplicate chunks, %d unneeded chunks, %d steps listing a need twice, %d steps without needs",
			dups, unneeded, twice, needless)
	}
}
