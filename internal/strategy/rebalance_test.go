package strategy

import (
	"testing"

	"distredge/internal/cnn"
)

func fourProviderStrategy(m *cnn.Model) *Strategy {
	b := PoolBoundaries(m)
	s := &Strategy{Boundaries: b}
	for v := 0; v+1 < len(b); v++ {
		h := VolumeHeight(m, b, v)
		s.Splits = append(s.Splits, ProportionalCuts(h, []float64{4, 3, 2, 1}))
	}
	return s
}

func TestProjectLiftRoundTrip(t *testing.T) {
	m := cnn.VGG16()
	s := fourProviderStrategy(m)
	alive := []bool{true, false, true, false}
	proj, err := Project(m, s, alive)
	if err != nil {
		t.Fatal(err)
	}
	if got := proj.NumProviders(); got != 2 {
		t.Fatalf("projected providers = %d, want 2", got)
	}
	if err := proj.Validate(m, 2); err != nil {
		t.Fatalf("projected strategy invalid: %v", err)
	}
	lifted, err := Lift(m, proj, alive)
	if err != nil {
		t.Fatal(err)
	}
	if err := lifted.Validate(m, 4); err != nil {
		t.Fatalf("lifted strategy invalid: %v", err)
	}
	for v := 0; v < lifted.NumVolumes(); v++ {
		si := 0
		for i := 0; i < 4; i++ {
			r := lifted.PartRange(m, v, i)
			if !alive[i] {
				if !r.Empty() {
					t.Errorf("volume %d: dead provider %d owns %v", v, i, r)
				}
				continue
			}
			if want := proj.PartRange(m, v, si); r.Len() != want.Len() {
				t.Errorf("volume %d survivor %d: %d rows, want %d", v, i, r.Len(), want.Len())
			}
			si++
		}
	}
}

func TestLiftTrailingDeadProviders(t *testing.T) {
	m := cnn.VGG16()
	b := SingleVolume(m)
	h := VolumeHeight(m, b, 0)
	compact := &Strategy{Boundaries: b, Splits: [][]int{EqualCuts(h, 2)}}
	// Providers 2 and 3 are dead: their lifted ranges must be empty at the
	// height sentinel, not dangling mid-volume.
	lifted, err := Lift(m, compact, []bool{true, true, false, false})
	if err != nil {
		t.Fatal(err)
	}
	if err := lifted.Validate(m, 4); err != nil {
		t.Fatal(err)
	}
	if r := lifted.PartRange(m, 0, 1); r.Hi != h {
		t.Errorf("last survivor ends at %d, want %d", r.Hi, h)
	}
	for i := 2; i < 4; i++ {
		if r := lifted.PartRange(m, 0, i); !r.Empty() {
			t.Errorf("dead provider %d owns %v", i, r)
		}
	}
}

func TestLiftRejectsMismatchedMask(t *testing.T) {
	m := cnn.VGG16()
	b := SingleVolume(m)
	h := VolumeHeight(m, b, 0)
	compact := &Strategy{Boundaries: b, Splits: [][]int{EqualCuts(h, 2)}}
	if _, err := Lift(m, compact, []bool{true, false, false}); err == nil {
		t.Error("mask with wrong alive count must error")
	}
}
