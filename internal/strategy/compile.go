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

	// Backing arrays of the volumes' slices, kept for CompileGeometryInto.
	ranges  []cnn.RowRange
	lists   [][]Source
	sources []Source
}

// CompileGeometry validates the strategy once and resolves its geometry for
// the given provider count. The result depends only on the model and the
// strategy.
func CompileGeometry(m *cnn.Model, s *Strategy, providers int) (*Geometry, error) {
	g := new(Geometry)
	if err := CompileGeometryInto(g, m, s, providers); err != nil {
		return nil, err
	}
	return g, nil
}

// CompileGeometryInto is CompileGeometry resolving into g, whose earlier
// contents it replaces, reusing g's storage: once g has held a geometry of
// as many volumes and providers with at least as many halo overlaps, it
// allocates nothing. A strategy that fails validation leaves g as it was.
func CompileGeometryInto(g *Geometry, m *cnn.Model, s *Strategy, providers int) error {
	if err := s.Validate(m, providers); err != nil {
		return err
	}
	// One backing array per kind for the whole plan: the planner compiles
	// every candidate strategy, so the allocation count is kept flat.
	numVols := s.NumVolumes()
	vols := resize(g.Volumes, numVols)
	ranges := resize(g.ranges, 2*providers*numVols)
	lists := resize(g.lists, providers*numVols)
	g.ranges, g.lists = ranges, lists
	overlaps := 0
	for v := range vols {
		layers := Volume(m, s.Boundaries, v)
		last := layers[len(layers)-1]
		vg := &vols[v]
		*vg = VolumeGeometry{
			Layers:      layers,
			Height:      last.OutHeight(),
			InRowBytes:  layers[0].InRowBytes(),
			OutRowBytes: last.OutRowBytes(),
			Parts:       ranges[:providers:providers],
			Inputs:      ranges[providers : 2*providers : 2*providers],
			Sources:     lists[:providers:providers],
		}
		ranges, lists = ranges[2*providers:], lists[providers:]
		for i := range vg.Parts {
			vg.Parts[i] = CutRange(s.Splits[v], vg.Height, i)
			if vg.Parts[i].Empty() {
				continue
			}
			vg.Inputs[i] = cnn.VolumeInputRows(layers, vg.Parts[i])
			if v > 0 {
				for _, own := range vols[v-1].Parts {
					if !vg.Inputs[i].Intersect(own).Empty() {
						overlaps++
					}
				}
			}
		}
	}
	flat := g.sources[:0]
	if cap(flat) < overlaps {
		flat = make([]Source, 0, overlaps)
	}
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
	g.sources = flat

	g.Volumes, g.FCOwner, g.FCLayers, g.ResultBytes = vols, -1, m.FCLayers(), 0
	if len(g.FCLayers) > 0 {
		best := -1
		for i, part := range vols[len(vols)-1].Parts {
			if part.Len() > best {
				best = part.Len()
				g.FCOwner = i
			}
		}
		g.ResultBytes = g.FCLayers[len(g.FCLayers)-1].OutputBytes()
	}
	return nil
}

// resize returns s resliced to n zeroed elements, or a new slice when s is
// too short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
