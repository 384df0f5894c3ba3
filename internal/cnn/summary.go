package cnn

import (
	"fmt"
	"strings"
)

// Summary renders a per-layer table of the model: kind, output shape,
// filter geometry, operations and activation bytes, with totals — the view
// cmd/distredge -describe prints.
func (m *Model) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d layers (%d splittable, %d fc), %.2f GFLOPs, input %.0f KB\n",
		m.Name, len(m.Layers), m.NumSplittable(), len(m.FCLayers()),
		m.TotalOps()/1e9, m.InputBytes()/1e3)
	fmt.Fprintf(&b, "%-14s %-8s %-14s %-9s %10s %10s\n",
		"layer", "kind", "output", "f/s/p", "MFLOPs", "out KB")
	for _, l := range m.Layers {
		shape := fmt.Sprintf("%dx%dx%d", l.OutWidth(), l.OutHeight(), l.OutDepth())
		geom := fmt.Sprintf("%d/%d/%d", l.F, l.S, l.P)
		if l.Kind == FC {
			shape = fmt.Sprintf("%d", l.Cout)
			geom = "-"
		}
		fmt.Fprintf(&b, "%-14s %-8s %-14s %-9s %10.1f %10.1f\n",
			l.Name, l.Kind, shape, geom, l.Ops()/1e6, l.OutputBytes()/1e3)
	}
	return b.String()
}

// ReceptiveField returns the receptive-field size and cumulative stride
// (jump) of the given layer chain: how many input rows influence one output
// row, and how far apart consecutive output rows sample the input. This is
// the quantity behind the VSL halo: a split-part's input extends ~RF/2 rows
// beyond its nominal share on each side.
func ReceptiveField(layers []Layer) (size, jump int) {
	size, jump = 1, 1
	for _, l := range layers {
		if !l.Splittable() {
			break
		}
		size += (l.F - 1) * jump
		jump *= l.S
	}
	return size, jump
}
