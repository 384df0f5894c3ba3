package strategy

import (
	"reflect"
	"slices"
	"testing"

	"distredge/internal/cnn"
)

// decodeStrategy deterministically expands raw fuzz bytes into a candidate
// strategy plus provider count. No validity is enforced — the whole point is
// to feed CompileGeometry adversarial cut points and volume boundaries.
func decodeStrategy(m *cnn.Model, data []byte) (*Strategy, int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		v := int(int8(data[0])) // signed on purpose: negatives must be handled
		data = data[1:]
		return v
	}
	providers := next()%6 + 1
	if providers < 1 {
		providers = -providers + 1
	}
	nb := next()%6 + 2
	if nb < 2 {
		nb = -nb + 2
	}
	s := &Strategy{Boundaries: make([]int, nb)}
	for i := range s.Boundaries {
		s.Boundaries[i] = next()
	}
	nv := next() % 8
	if nv < 0 {
		nv = -nv
	}
	s.Splits = make([][]int, nv)
	for v := range s.Splits {
		cuts := make([]int, providers-1)
		for j := range cuts {
			cuts[j] = next() * 3 // overshoot heights on purpose
		}
		s.Splits[v] = cuts
	}
	return s, providers
}

// checkGeometry asserts the contract every consumer of a Geometry leans on:
// parts tile each volume in provider order, and for every volume after the
// first each non-empty part's sources tile exactly its input rows — no gap,
// no overlap, no row from a provider that does not hold it.
func checkGeometry(t *testing.T, m *cnn.Model, geo *Geometry) {
	t.Helper()
	for v, g := range geo.Volumes {
		pos := 0
		for i, part := range g.Parts {
			if part.Empty() {
				if len(g.Sources[i]) != 0 || !g.Inputs[i].Empty() {
					t.Fatalf("volume %d provider %d: idle part has inputs %v from %v", v, i, g.Inputs[i], g.Sources[i])
				}
				continue
			}
			if part.Lo < pos || part.Hi > g.Height {
				t.Fatalf("volume %d provider %d: part %v escapes [0,%d) (pos %d)",
					v, i, part, g.Height, pos)
			}
			if v == len(geo.Volumes)-1 && part.Lo != pos {
				t.Fatalf("last volume: gap [%d,%d) before provider %d", pos, part.Lo, i)
			}
			pos = part.Hi
			if v == 0 {
				if len(g.Sources[i]) != 0 {
					t.Fatalf("volume 0 provider %d: sources %v, want the requester's scatter only", i, g.Sources[i])
				}
				continue
			}
			if len(g.Sources[i]) == 0 {
				t.Fatalf("volume %d provider %d: part %v has no sources", v, i, part)
			}
			next, from := g.Inputs[i].Lo, -1
			for _, src := range g.Sources[i] {
				held := geo.Volumes[v-1].Parts[src.From]
				if src.From <= from || src.Rows.Empty() || src.Rows.Lo != next ||
					src.Rows.Lo < held.Lo || src.Rows.Hi > held.Hi {
					t.Fatalf("volume %d provider %d: source %+v breaks the tiling of %v at row %d (producer holds %v)",
						v, i, src, g.Inputs[i], next, held)
				}
				next, from = src.Rows.Hi, src.From
			}
			if next != g.Inputs[i].Hi {
				t.Fatalf("volume %d provider %d: sources %v stop at %d, inputs are %v", v, i, g.Sources[i], next, g.Inputs[i])
			}
		}
		if v == len(geo.Volumes)-1 && pos != g.Height {
			t.Fatalf("last volume: parts stop at %d of %d rows", pos, g.Height)
		}
	}
	if (geo.FCOwner == -1) != (len(m.FCLayers()) == 0) {
		t.Fatalf("FCOwner %d with %d FC layers", geo.FCOwner, len(m.FCLayers()))
	}
	if o := geo.FCOwner; o >= 0 {
		last := geo.Volumes[len(geo.Volumes)-1].Parts
		for i, part := range last {
			if part.Len() > last[o].Len() || part.Len() == last[o].Len() && i < o {
				t.Fatalf("FCOwner %d holds %v but provider %d holds %v", o, last[o], i, part)
			}
		}
	}
}

// editStrategy returns the strategy a planner compiles next into the
// geometry of s: with the first edit byte ≡ 0 (mod 4) another fuzzed
// strategy (decodeStrategy of the rest), else s with its cuts moved, one
// (volume, cut, signed delta) triple of bytes per move, unchecked.
func editStrategy(m *cnn.Model, s *Strategy, edit []byte) (*Strategy, int) {
	if len(edit) > 0 && edit[0]%4 == 0 {
		return decodeStrategy(m, edit[1:])
	}
	e := &Strategy{Boundaries: s.Boundaries, Splits: make([][]int, len(s.Splits))}
	for v, cuts := range s.Splits {
		e.Splits[v] = slices.Clone(cuts)
	}
	for ; len(edit) >= 3 && len(e.Splits) > 0; edit = edit[3:] {
		cuts := e.Splits[int(edit[0])%len(e.Splits)]
		if len(cuts) > 0 {
			cuts[int(edit[1])%len(cuts)] += int(int8(edit[2]))
		}
	}
	return e, s.NumProviders()
}

// FuzzCompileGeometry asserts the compile-time contract churn recovery
// leans on: for ANY input — adversarial cut points, unsorted or
// out-of-range volume boundaries, mismatched split counts — either
// Validate rejects the strategy or CompileGeometry succeeds (a panic, say
// an index out of range on a hostile boundary, is the failure mode) and
// the geometry passes checkGeometry, on a model with an FC tail and on a
// fully-convolutional one. Compiling the strategy editStrategy makes of it
// into that geometry must then leave what a fresh compile of the edited
// strategy makes, field for field, or — when the edit is invalid — the
// geometry as it was.
func FuzzCompileGeometry(f *testing.F) {
	f.Add([]byte{4, 3, 0, 5, 18, 2, 10, 20, 30}, []byte{})
	f.Add([]byte{2, 2, 0, 18, 1, 0}, []byte{1, 0, 0, 5})
	f.Add([]byte{1, 2, 0, 18, 1}, []byte{1})                      // single provider: zero-length cut lists
	f.Add([]byte{4, 4, 0, 0, 9, 18, 3, 1, 2, 3, 4, 5}, []byte{0}) // empty volume
	f.Add([]byte{3, 3, 0, 200, 18, 2, 120, 110}, []byte{})        // out-of-range boundary, unsorted cuts
	f.Add([]byte{5, 2, 0, 18, 1, 127, 128, 255, 0}, []byte{})

	// Accepted strategies, so the seed corpus reaches checkGeometry: vgg16
	// (FC tail, two largest last parts tie) and yolov2 (fully
	// convolutional), each with an idle provider in the last volume. Their
	// edits move one cut, cuts in two volumes, a cut past its neighbour
	// (invalid), and swap in another volume count.
	f.Add([]byte{3, 2, 0, 10, 14, 18, 3, 1, 2, 3, 1, 2, 4, 0, 1, 2}, []byte{1, 0, 1})
	f.Add([]byte{3, 2, 0, 10, 14, 18, 3, 1, 2, 3, 1, 2, 4, 0, 1, 2}, []byte{1, 1, 2, 0, 0, 1})
	f.Add([]byte{3, 2, 0, 10, 14, 18, 3, 1, 2, 3, 1, 2, 4, 0, 1, 2}, []byte{1, 0, 40})
	f.Add([]byte{2, 2, 0, 8, 18, 26, 3, 4, 10, 1, 3, 2, 2}, []byte{1, 1, 0, 2})
	f.Add([]byte{2, 2, 0, 8, 18, 26, 3, 4, 10, 1, 3, 2, 2}, []byte{0, 2, 3, 0, 4, 10, 18, 26, 3, 3, 1, 2})

	models := []*cnn.Model{cnn.VGG16(), cnn.YOLOv2()}
	f.Fuzz(func(t *testing.T, data, edit []byte) {
		for _, m := range models {
			s, providers := decodeStrategy(m, data)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s: panic with boundaries=%v splits=%v providers=%d: %v",
							m.Name, s.Boundaries, s.Splits, providers, r)
					}
				}()
				geo, err := CompileGeometry(m, s, providers)
				if err != nil {
					return
				}
				checkGeometry(t, m, geo)
				e, n := editStrategy(m, s, edit)
				want, err := CompileGeometry(m, e, n)
				if err != nil {
					want, _ = CompileGeometry(m, s, providers)
				}
				if gotErr := CompileGeometryInto(geo, m, e, n); (gotErr != nil) != (err != nil) {
					t.Fatalf("%s: compiling %v %v into a geometry fails with %v, fresh with %v", m.Name, e.Boundaries, e.Splits, gotErr, err)
				}
				if !reflect.DeepEqual(geo, want) {
					t.Fatalf("%s: %v %v compiled into the geometry of %v %v differs from a fresh compile (error %v)",
						m.Name, e.Boundaries, e.Splits, s.Boundaries, s.Splits, err)
				}
			}()
		}
	})
}

// FuzzProjectLift asserts the round trip churn recovery leans on when it
// moves a strategy between the full fleet and the survivors: for every
// valid strategy and non-empty liveness mask, Project is valid for the
// survivors; Lift of it is valid for the full fleet, gives every dead
// provider an empty part and every survivor exactly its projected rows; and
// projecting the lifted strategy reproduces the projected cuts exactly.
func FuzzProjectLift(f *testing.F) {
	f.Add([]byte{3, 2, 0, 10, 14, 18, 3, 1, 2, 3, 1, 2, 4, 0, 1, 2}, byte(0b1011))
	f.Add([]byte{2, 2, 0, 8, 18, 26, 3, 4, 10, 1, 3, 2, 2}, byte(0b010))
	f.Add([]byte{1, 2, 0, 18, 1}, byte(1))

	models := []*cnn.Model{cnn.VGG16(), cnn.YOLOv2()}
	f.Fuzz(func(t *testing.T, data []byte, mask byte) {
		for _, m := range models {
			s, n := decodeStrategy(m, data)
			if s.Validate(m, n) != nil {
				continue
			}
			alive := make([]bool, n)
			for i := range alive {
				alive[i] = mask>>i&1 == 1
			}
			k := CountAlive(alive)
			if k == 0 {
				continue
			}
			c, err := Project(m, s, alive)
			if err != nil {
				t.Fatalf("%s: Project(%v, alive %v): %v", m.Name, s.Splits, alive, err)
			}
			if err := c.Validate(m, k); err != nil {
				t.Fatalf("%s: Project(%v, alive %v) = %v: %v", m.Name, s.Splits, alive, c.Splits, err)
			}
			full, err := Lift(m, c, alive)
			if err != nil {
				t.Fatalf("%s: Lift(%v, alive %v): %v", m.Name, c.Splits, alive, err)
			}
			if err := full.Validate(m, n); err != nil {
				t.Fatalf("%s: Lift(%v, alive %v) = %v: %v", m.Name, c.Splits, alive, full.Splits, err)
			}
			for v := range full.Splits {
				h := VolumeHeight(m, s.Boundaries, v)
				j := 0 // survivor ordinal
				for i := range alive {
					got, want := CutRange(full.Splits[v], h, i).Len(), 0
					if alive[i] {
						want = CutRange(c.Splits[v], h, j).Len()
						j++
					}
					if got != want {
						t.Fatalf("%s: volume %d provider %d (alive %v): lifted %v gives %d rows, want %d from %v",
							m.Name, v, i, alive, full.Splits[v], got, want, c.Splits[v])
					}
				}
			}
			back, err := Project(m, full, alive)
			if err != nil {
				t.Fatalf("%s: Project(Lift(%v)): %v", m.Name, c.Splits, err)
			}
			if !slices.EqualFunc(back.Splits, c.Splits, slices.Equal) {
				t.Fatalf("%s: Project(Lift(%v)) = %v, alive %v", m.Name, c.Splits, back.Splits, alive)
			}
		}
	})
}
