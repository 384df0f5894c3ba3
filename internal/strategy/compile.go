package strategy

import (
	"distredge/internal/cnn"
)

// Source is one halo overlap: rows of the previous volume's output that a
// consumer needs and that provider From computed.
type Source struct {
	From int
	Rows cnn.RowRange
}

// VolumeGeometry is the fully resolved geometry of one layer-volume under a
// fixed strategy: which output rows every provider computes, which input
// rows that part needs, and which providers hold them.
type VolumeGeometry struct {
	Layers      []cnn.Layer
	Height      int     // output height of the volume's last layer
	InRowBytes  float64 // bytes per input row of the volume's first layer
	OutRowBytes float64 // bytes per output row of the volume's last layer
	Parts       []cnn.RowRange
	Inputs      []cnn.RowRange // halo input rows per provider; zero when Parts[i] is empty
	// Sources[i] tiles Inputs[i] with the previous volume's parts, in
	// ascending producer order; the rows provider i computed itself appear
	// with From == i. Empty for volume 0, whose inputs the requester
	// scatters.
	Sources [][]Source
}

// Geometry is everything a strategy fixes before any image flows: who
// computes which rows of every volume, who needs which rows from whom, and
// who finishes the image. The simulator's compiled plan (sim.Compile, whose
// one per-image replay serves Latency, Stream, Timeline and Serve) and the
// runtime's deployment plan (runtime.BuildPlan) are translations of it with
// no geometry of their own, so they agree on which rows move where by
// construction.
type Geometry struct {
	Volumes []VolumeGeometry

	// Finish phase: the parts of the last volume are gathered at FCOwner,
	// which runs FCLayers and returns ResultBytes to the requester. The
	// owner is the provider with the largest last part, ties to the lowest
	// index (Section V-A). For a fully-convolutional model FCOwner is -1,
	// FCLayers is empty and every provider returns its last part straight
	// to the requester.
	FCOwner     int
	FCLayers    []cnn.Layer
	ResultBytes float64
}

// CompileGeometry validates the strategy once and resolves its geometry for
// the given provider count. The result depends only on the model and the
// strategy.
func CompileGeometry(m *cnn.Model, s *Strategy, providers int) (*Geometry, error) {
	if err := s.Validate(m, providers); err != nil {
		return nil, err
	}
	// One backing array per kind for the whole plan: the planner compiles
	// every candidate strategy, so the allocation count is kept flat.
	vols := make([]VolumeGeometry, s.NumVolumes())
	ranges := make([]cnn.RowRange, 2*providers*len(vols))
	lists := make([][]Source, providers*len(vols))
	overlaps := 0
	for v := range vols {
		layers := Volume(m, s.Boundaries, v)
		last := layers[len(layers)-1]
		g := &vols[v]
		*g = VolumeGeometry{
			Layers:      layers,
			Height:      last.OutHeight(),
			InRowBytes:  layers[0].InRowBytes(),
			OutRowBytes: last.OutRowBytes(),
			Parts:       ranges[:providers:providers],
			Inputs:      ranges[providers : 2*providers : 2*providers],
			Sources:     lists[:providers:providers],
		}
		ranges, lists = ranges[2*providers:], lists[providers:]
		for i := range g.Parts {
			g.Parts[i] = CutRange(s.Splits[v], g.Height, i)
			if g.Parts[i].Empty() {
				continue
			}
			g.Inputs[i] = cnn.VolumeInputRows(layers, g.Parts[i])
			if v > 0 {
				for _, own := range vols[v-1].Parts {
					if !g.Inputs[i].Intersect(own).Empty() {
						overlaps++
					}
				}
			}
		}
	}
	flat := make([]Source, 0, overlaps)
	for v := 1; v < len(vols); v++ {
		for i, in := range vols[v].Inputs {
			lo := len(flat)
			for j, own := range vols[v-1].Parts {
				if ov := in.Intersect(own); !ov.Empty() {
					flat = append(flat, Source{From: j, Rows: ov})
				}
			}
			vols[v].Sources[i] = flat[lo:len(flat):len(flat)]
		}
	}

	geo := &Geometry{Volumes: vols, FCOwner: -1, FCLayers: m.FCLayers()}
	if len(geo.FCLayers) > 0 {
		best := -1
		for i, part := range vols[len(vols)-1].Parts {
			if part.Len() > best {
				best = part.Len()
				geo.FCOwner = i
			}
		}
		geo.ResultBytes = geo.FCLayers[len(geo.FCLayers)-1].OutputBytes()
	}
	return geo, nil
}
