package partition

import (
	"slices"
	"testing"

	"distredge/internal/cnn"
)

func TestSearchReturnsValidBoundaries(t *testing.T) {
	m := cnn.VGG16()
	b, err := Search(m, Config{Alpha: 0.75, NumRandomSplits: 50, Providers: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != 0 || b[len(b)-1] != m.NumSplittable() {
		t.Fatalf("boundaries %v do not span the model", b)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("boundaries %v not strictly increasing", b)
		}
	}
}

func TestAlphaControlsGranularity(t *testing.T) {
	// Paper, Section V-C: small α ⇒ many volumes (ops-only), large α ⇒ few
	// volumes (transmission-only). VGG-16 goes from 16 volumes at α=0 to 2
	// at α=1 in the paper; we require the same monotone trend and extremes
	// in the same ballpark.
	m := cnn.VGG16()
	counts := map[float64]int{}
	for _, alpha := range []float64{0, 0.5, 1} {
		b, err := Search(m, Config{Alpha: alpha, NumRandomSplits: 40, Providers: 4, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		counts[alpha] = len(b) - 1
	}
	if counts[0] < counts[0.5] || counts[0.5] < counts[1] {
		t.Errorf("volume counts not monotone in alpha: %v", counts)
	}
	if counts[0] < 8 {
		t.Errorf("alpha=0 should partition finely, got %d volumes", counts[0])
	}
	if counts[1] > 4 {
		t.Errorf("alpha=1 should partition coarsely, got %d volumes", counts[1])
	}
}

func TestSearchDeterministic(t *testing.T) {
	m := cnn.VGG16()
	cfg := Config{Alpha: 0.75, NumRandomSplits: 30, Providers: 4, Seed: 9}
	a, err := Search(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Search(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic: %v vs %v", a, b)
		}
	}
}

func TestSearchErrors(t *testing.T) {
	m := cnn.VGG16()
	if _, err := Search(m, Config{Alpha: -0.5, NumRandomSplits: 10, Providers: 4}); err == nil {
		t.Error("negative alpha must error")
	}
	if _, err := Search(m, Config{Alpha: 1.5, NumRandomSplits: 10, Providers: 4}); err == nil {
		t.Error("alpha > 1 must error")
	}
	if _, err := Search(m, Config{Alpha: 0.5, NumRandomSplits: 10, Providers: -2}); err == nil {
		t.Error("negative providers must error")
	}
	fcOnly := &cnn.Model{Name: "fconly", Layers: []cnn.Layer{{Kind: cnn.FC, Cin: 4, Cout: 2}}}
	if _, err := Search(fcOnly, Config{Alpha: 0.5, NumRandomSplits: 10, Providers: 2}); err == nil {
		t.Error("model without splittable layers must error")
	}
}

func TestDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Alpha != 0.75 || c.NumRandomSplits != 100 || c.Providers != 4 {
		t.Errorf("defaults wrong: %+v", c)
	}
	// Explicit alpha=0 with explicit splits is preserved.
	c2 := Config{Alpha: 0, NumRandomSplits: 50, Providers: 4}.withDefaults()
	if c2.Alpha != 0 {
		t.Errorf("explicit alpha=0 overwritten: %+v", c2)
	}
}

func TestInsertSorted(t *testing.T) {
	base := []int{0, 5, 10}
	got := insertSorted(nil, base, 7)
	want := []int{0, 5, 7, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("insertSorted = %v, want %v", got, want)
		}
	}
	if len(insertSorted(nil, base, 5)) != 3 {
		t.Error("inserting an existing boundary must be a no-op")
	}
	head := insertSorted(nil, []int{5, 10}, 1)
	if head[0] != 1 {
		t.Errorf("insert at head broken: %v", head)
	}
	tail := insertSorted(nil, []int{0, 5}, 9)
	if tail[2] != 9 {
		t.Errorf("insert at tail broken: %v", tail)
	}
	// A candidate is built in the caller's buffer, which grows only when
	// it is short.
	buf := make([]int, 0, 4)
	dst := buf
	allocs := testing.AllocsPerRun(100, func() {
		dst = insertSorted(dst, base, 7)
	})
	if allocs != 0 || !slices.Equal(dst, want) || &dst[0] != &buf[:1][0] {
		t.Errorf("insertSorted into a 4-capacity buffer: %v, %v allocations", dst, allocs)
	}
}

func TestScoreComponentsBehave(t *testing.T) {
	// Finer partitions must (weakly) reduce total ops (less halo recompute)
	// and increase boundary-crossing transmission — the trade-off LC-PSS
	// navigates.
	m := cnn.VGG16()
	cfg := Config{Alpha: 0.5, NumRandomSplits: 40, Providers: 4, Seed: 3}.withDefaults()
	s := newSearcher(m, cfg)
	// A fixed fraction set keeps the check deterministic.
	s.fracs = [][]float64{{0.25, 0.5, 0.75}, {0.1, 0.4, 0.9}}
	n := m.NumSplittable()
	fine := []int{0, 4, 9, 13, n}

	opsCoarse, _ := s.volume(0, n)
	var opsFine float64
	for i := 0; i+1 < len(fine); i++ {
		ops, _ := s.volume(fine[i], fine[i+1])
		opsFine += ops
	}
	if opsFine > opsCoarse {
		t.Errorf("finer partition increased ops: %g > %g", opsFine, opsCoarse)
	}

	if _, cross := s.volume(9, 13); cross <= 0 {
		t.Error("interior boundary must cross bytes")
	}
	// Layer-by-layer must transmit far more than a coarse 3-volume scheme.
	// (Per-boundary crossing is not monotone under refinement — shorter
	// volumes have smaller halos — but the coarse/fine contrast is robust.)
	lbl := make([]int, n+1)
	for i := range lbl {
		lbl[i] = i
	}
	_, transLbL := s.rawScore(lbl)
	_, trans3 := s.rawScore([]int{0, 10, 14, n})
	if transLbL < 1.5*trans3 {
		t.Errorf("layer-by-layer trans %g not >> 3-volume trans %g", transLbL, trans3)
	}
}

func TestPartIntervals(t *testing.T) {
	parts := partIntervals(nil, []float64{0.25, 0.5, 0.75}, 100, 4)
	if parts[0].len() != 25 || parts[3].len() != 25 {
		t.Fatalf("partIntervals wrong: %+v", parts)
	}
	var total float64
	for _, p := range parts {
		total += p.len()
	}
	if total != 100 {
		t.Errorf("parts must tile the height: %g", total)
	}
	// Unsorted fractions are forced monotone.
	parts = partIntervals(nil, []float64{0.9, 0.1}, 10, 3)
	if parts[1].Hi < parts[1].Lo {
		t.Errorf("interval order broken: %+v", parts)
	}
}

// TestPartIntervalsReusesStorage checks that volume's per-fraction
// interval fill allocates nothing once the scratch slice has the capacity.
func TestPartIntervalsReusesStorage(t *testing.T) {
	frac := []float64{0.1, 0.4, 0.9}
	dst := make([]interval, 0, 4)
	allocs := testing.AllocsPerRun(100, func() {
		dst = partIntervals(dst, frac, 224, 4)
	})
	if allocs != 0 {
		t.Errorf("partIntervals into a 4-capacity slice allocates %v times", allocs)
	}
	if len(dst) != 4 || dst[3].Hi != 224 {
		t.Errorf("partIntervals filled %+v", dst)
	}
}

func TestInputIntervalMatchesIntegerVSL(t *testing.T) {
	// On the interior, the continuous backward map must agree with the
	// integer VSL up to one row.
	l := cnn.Layer{Kind: cnn.Conv, Win: 224, Hin: 224, Cin: 3, Cout: 64, F: 3, S: 1, P: 1}
	lr := rowsOf(l)
	iv := inputInterval(&lr, interval{100, 120})
	ir := cnn.InputRows(l, cnn.RowRange{Lo: 100, Hi: 120})
	if iv.Lo < float64(ir.Lo)-1 || iv.Hi > float64(ir.Hi)+1 {
		t.Errorf("continuous %+v vs integer %v", iv, ir)
	}
	if inputInterval(&lr, interval{5, 5}).len() != 0 {
		t.Error("empty interval must stay empty")
	}
}

func TestDetectorTailsStillPartition(t *testing.T) {
	// SSD-style models end in H=1 layers; the continuous scorer must still
	// find a non-trivial partition at moderate alpha.
	for _, m := range []*cnn.Model{cnn.SSDVGG16(), cnn.SSDResNet50()} {
		b, err := Search(m, Config{Alpha: 0.5, NumRandomSplits: 30, Providers: 4, Seed: 4})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if len(b)-1 < 2 {
			t.Errorf("%s: degenerate single-volume partition %v", m.Name, b)
		}
	}
}

func TestSearchAllZooModels(t *testing.T) {
	if testing.Short() {
		t.Skip("zoo sweep in short mode")
	}
	for name, m := range cnn.Zoo() {
		b, err := Search(m, Config{Alpha: 0.75, NumRandomSplits: 20, Providers: 4, Seed: 5})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(b) < 2 {
			t.Errorf("%s: degenerate boundaries %v", name, b)
		}
	}
}

// TestLCPSSAllocs pins a search's allocations for each (model, provider
// count) a plan-mix pass plans at the quick budget: the searcher's layers,
// memo table and interval scratch, the fraction vectors in one backing
// array, the scheme buffers and the random source (8 objects on amd64), but
// nothing per candidate or per volume.
func TestLCPSSAllocs(t *testing.T) {
	for _, key := range []struct {
		model     *cnn.Model
		providers []int
	}{
		{cnn.VGG16(), []int{4, 5}}, {cnn.ResNet50(), []int{5, 6}},
		{cnn.YOLOv2(), []int{4, 6}}, {cnn.InceptionV3(), []int{4, 5}},
	} {
		for _, n := range key.providers {
			cfg := Config{Alpha: 0.75, NumRandomSplits: 50, Providers: n, Seed: 1}
			allocs := testing.AllocsPerRun(2, func() {
				if _, err := Search(key.model, cfg); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 12 {
				t.Errorf("%s on %d providers: %.0f allocations per search, want <= 12", key.model.Name, n, allocs)
			}
		}
	}
}
