package plot

import (
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

func TestSparklineBasics(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Error("empty input must yield empty string")
	}
	s := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7})
	if utf8.RuneCountInString(s) != 8 {
		t.Fatalf("sparkline length %d, want 8", utf8.RuneCountInString(s))
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[7] != '█' {
		t.Errorf("extremes wrong: %s", s)
	}
}

func TestSparklineFlat(t *testing.T) {
	s := Sparkline([]float64{5, 5, 5})
	if utf8.RuneCountInString(s) != 3 {
		t.Fatalf("length %d", utf8.RuneCountInString(s))
	}
	runes := []rune(s)
	if runes[0] != runes[1] || runes[1] != runes[2] {
		t.Error("flat series must render uniformly")
	}
}

func TestSparklineLengthProperty(t *testing.T) {
	f := func(vals []float64) bool {
		for i, v := range vals {
			if v != v { // NaN guard
				vals[i] = 0
			}
		}
		return utf8.RuneCountInString(Sparkline(vals)) == len(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDownsample(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i)
	}
	ds := Downsample(vals, 10)
	if len(ds) != 10 {
		t.Fatalf("len = %d, want 10", len(ds))
	}
	// Bucket means of 0..9, 10..19, ... = 4.5, 14.5, ...
	if ds[0] != 4.5 || ds[9] != 94.5 {
		t.Errorf("means wrong: %v", ds)
	}
	if got := Downsample(vals, 200); len(got) != 100 {
		t.Error("upsampling must be a copy")
	}
	if got := Downsample(vals, 0); len(got) != 100 {
		t.Error("n<=0 must be a copy")
	}
}

func TestDownsampleDoesNotAlias(t *testing.T) {
	vals := []float64{1, 2, 3}
	ds := Downsample(vals, 5)
	ds[0] = 99
	if vals[0] == 99 {
		t.Error("Downsample must copy")
	}
}

func TestLines(t *testing.T) {
	out := Lines([]Series{
		{Name: "a", Values: []float64{1, 2, 3, 4}},
		{Name: "bb", Values: []float64{4, 3, 2, 1}},
	}, 4)
	if !strings.Contains(out, "a ") || !strings.Contains(out, "bb") {
		t.Errorf("names missing: %q", out)
	}
	if !strings.Contains(out, "scale 1.0 .. 4.0") {
		t.Errorf("scale annotation missing: %q", out)
	}
	if Lines(nil, 10) != "" {
		t.Error("empty plot must be empty")
	}
}
