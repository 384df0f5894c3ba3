package cnn

import (
	"strings"
	"testing"
)

func TestBuilderChaining(t *testing.T) {
	m, err := NewBuilder("tiny", 32, 32, 3).
		Conv("c1", 16, 3, 1, 1).
		Pool("p1", 2, 2).
		Conv("c2", 32, 3, 1, 1).
		FC("fc", 10).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.NumSplittable(); got != 3 {
		t.Errorf("NumSplittable = %d, want 3", got)
	}
	if got := len(m.FCLayers()); got != 1 {
		t.Errorf("FCLayers = %d, want 1", got)
	}
	fc := m.FCLayers()[0]
	if fc.Cin != 16*16*32 {
		t.Errorf("fc input = %d, want %d", fc.Cin, 16*16*32)
	}
}

func TestBuilderPropagatesError(t *testing.T) {
	_, err := NewBuilder("bad", 4, 4, 3).
		Conv("c1", 16, 7, 1, 0). // 7x7 filter on 4x4 input: invalid
		Conv("c2", 32, 3, 1, 1).
		Build()
	if err == nil {
		t.Fatal("expected error from invalid layer")
	}
}

func TestModelValidateCatchesMismatch(t *testing.T) {
	m := &Model{Name: "broken", Layers: []Layer{
		{Name: "a", Kind: Conv, Win: 32, Hin: 32, Cin: 3, Cout: 16, F: 3, S: 1, P: 1},
		{Name: "b", Kind: Conv, Win: 32, Hin: 32, Cin: 99, Cout: 16, F: 3, S: 1, P: 1},
	}}
	err := m.Validate()
	if err == nil || !strings.Contains(err.Error(), "input") {
		t.Fatalf("expected dimension mismatch error, got %v", err)
	}
}

func TestModelValidateFCOrdering(t *testing.T) {
	m := &Model{Name: "fc-first", Layers: []Layer{
		{Name: "fc", Kind: FC, Cin: 10, Cout: 10},
		{Name: "c", Kind: Conv, Win: 8, Hin: 8, Cin: 3, Cout: 4, F: 3, S: 1, P: 1},
	}}
	if err := m.Validate(); err == nil {
		t.Fatal("expected error: conv after FC")
	}
}

func TestModelValidateEmpty(t *testing.T) {
	if err := (&Model{Name: "empty"}).Validate(); err == nil {
		t.Fatal("expected error for empty model")
	}
}

func TestTotalOpsPositive(t *testing.T) {
	m := VGG16()
	if m.TotalOps() <= 0 {
		t.Fatal("TotalOps must be positive")
	}
	// VGG-16 is famously ~30.9 GFLOPs for the conv+fc stack at 224x224.
	// Our count should land in the right ballpark (FLOPs = 2*MACs).
	ops := m.TotalOps()
	if ops < 25e9 || ops > 40e9 {
		t.Errorf("VGG-16 ops = %.3g, expected ~31e9", ops)
	}
}

func TestInputBytes(t *testing.T) {
	m := VGG16()
	want := float64(224 * 224 * 3 * BytesPerElem)
	if got := m.InputBytes(); got != want {
		t.Errorf("InputBytes = %g, want %g", got, want)
	}
	if (&Model{}).InputBytes() != 0 {
		t.Error("empty model InputBytes must be 0")
	}
}
