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
	// Volume v's Parts and Inputs are ranges[2nv : 2n(v+1)] over n
	// providers and its Sources lists[nv : n(v+1)]; the sources of
	// provider i in volume v fill the n-slot region
	// sources[(nv+i)n : (nv+i+1)n] from its start, the rest of the region
	// zero (one slot per producer, so a list always fits its region and a
	// volume is rebuilt without moving any other). Volume 0's regions stay
	// zero.
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
// as many volumes and providers, it allocates nothing. A strategy that
// fails validation leaves g as it was.
//
// When g holds a geometry of the same model, volume boundaries and
// provider count — a planner moving cuts — only what the moved cuts
// change is resolved again: the parts whose row ranges differ from the
// Parts g holds and their input rows, the halo sources of every volume
// with a moved part and of the volume after it, and the finish phase. The
// result equals a fresh compile's field for field, because every field is
// a function of its own volume's parts and the previous volume's. Any
// other g is resolved whole, by the same loop over every volume.
func CompileGeometryInto(g *Geometry, m *cnn.Model, s *Strategy, providers int) error {
	if err := s.Validate(m, providers); err != nil {
		return err
	}
	n, numVols := providers, s.NumVolumes()
	layers := m.SplittableLayers()
	whole := !g.holds(layers, s.Boundaries, n)
	if whole {
		// One backing array per kind for the whole plan: the planner
		// compiles every candidate strategy, so the allocation count is
		// kept flat.
		g.Volumes = resize(g.Volumes, numVols)
		g.ranges = resize(g.ranges, 2*n*numVols)
		g.lists = resize(g.lists, n*numVols)
		g.sources = resize(g.sources, n*n*numVols)
	}
	vols := g.Volumes
	prevMoved := false
	for v := range vols {
		vg := &vols[v]
		if whole {
			vl := layers[s.Boundaries[v]:s.Boundaries[v+1]]
			last := vl[len(vl)-1]
			r, l := g.ranges[2*n*v:], g.lists[n*v:]
			*vg = VolumeGeometry{
				Layers:      vl,
				Height:      last.OutHeight(),
				InRowBytes:  vl[0].InRowBytes(),
				OutRowBytes: last.OutRowBytes(),
				Parts:       r[:n:n],
				Inputs:      r[n : 2*n : 2*n],
				Sources:     l[:n:n],
			}
		}
		moved := false
		for i := range vg.Parts {
			part := CutRange(s.Splits[v], vg.Height, i)
			if !whole && part == vg.Parts[i] {
				continue
			}
			vg.Parts[i], vg.Inputs[i], moved = part, cnn.RowRange{}, true
			if !part.Empty() {
				vg.Inputs[i] = cnn.VolumeInputRows(vg.Layers, part)
			}
		}
		if v > 0 && (moved || prevMoved) {
			for i, in := range vg.Inputs {
				region := g.sources[(n*v+i)*n : (n*v+i+1)*n]
				k := 0
				for j, own := range vols[v-1].Parts {
					if ov := in.Intersect(own); !ov.Empty() {
						region[k] = Source{From: j, Rows: ov}
						k++
					}
				}
				clear(region[k:])
				vg.Sources[i] = region[:k:k]
			}
		}
		prevMoved = moved
	}

	g.FCOwner, g.FCLayers, g.ResultBytes = -1, m.FCLayers(), 0
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

// holds reports whether g holds a geometry of the given volume boundaries
// over layers (a model's splittable layers) and providers: the same
// number of volumes, each a view of the same layers, with as many parts.
func (g *Geometry) holds(layers []cnn.Layer, boundaries []int, providers int) bool {
	if len(g.Volumes) != len(boundaries)-1 {
		return false
	}
	for v := range g.Volumes {
		vg, vl := &g.Volumes[v], layers[boundaries[v]:boundaries[v+1]]
		if len(vg.Parts) != providers || len(vg.Layers) != len(vl) || &vg.Layers[0] != &vl[0] {
			return false
		}
	}
	return true
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
