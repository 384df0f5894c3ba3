package cnn

import (
	"strings"
	"testing"
)

func TestSummaryContents(t *testing.T) {
	m := VGG16()
	s := m.Summary()
	for _, want := range []string{"vgg16", "conv1_1", "pool5", "fc8", "GFLOPs", "224x224x64"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q", want)
		}
	}
	if lines := strings.Count(s, "\n"); lines < len(m.Layers) {
		t.Errorf("summary has %d lines for %d layers", lines, len(m.Layers))
	}
}

func TestReceptiveField(t *testing.T) {
	// Two stacked 3x3 s1 convs: RF 5, jump 1.
	convs := VGG16().SplittableLayers()
	size, jump := ReceptiveField(convs[:2])
	if size != 5 || jump != 1 {
		t.Errorf("two 3x3 convs: rf=%d jump=%d, want 5/1", size, jump)
	}
	// conv,conv,pool2: RF 6, jump 2.
	size, jump = ReceptiveField(convs[:3])
	if size != 6 || jump != 2 {
		t.Errorf("block1: rf=%d jump=%d, want 6/2", size, jump)
	}
	// Whole VGG-16 conv stack: jump = 2^5 = 32 (five pools).
	size, jump = ReceptiveField(convs)
	if jump != 32 {
		t.Errorf("vgg16 jump = %d, want 32", jump)
	}
	if size < 200 {
		t.Errorf("vgg16 receptive field %d implausibly small", size)
	}
}

func TestReceptiveFieldMatchesVSL(t *testing.T) {
	// The receptive-field formula must agree with the VSL: one output row's
	// input range on an unclamped (interior) chain spans exactly RF rows.
	layers := VGG16().SplittableLayers()[:6] // through pool2
	size, _ := ReceptiveField(layers)
	mid := layers[5].OutHeight() / 2
	in := VolumeInputRows(layers, RowRange{mid, mid + 1})
	if in.Len() != size {
		t.Errorf("VSL input rows %d != receptive field %d", in.Len(), size)
	}
}

func TestHaloRows(t *testing.T) {
	// Two 3x3 convs: an interior output row needs 4 halo rows.
	layers := VGG16().SplittableLayers()[:2]
	mid := layers[1].OutHeight() / 2
	if halo := VolumeInputRows(layers, RowRange{mid, mid + 1}).Len() - 1; halo != 4 {
		t.Errorf("halo of two 3x3 convs = %d, want 4", halo)
	}
}
