package cnn

import "fmt"

// Model is a sequential CNN: a chain of Conv/MaxPool layers optionally
// followed by FC layers. The splittable prefix (Conv/MaxPool) is what
// DistrEdge partitions and splits; FC layers run on a single provider.
type Model struct {
	Name   string
	Layers []Layer
}

// NumSplittable returns the number of leading Conv/MaxPool layers, i.e. the
// length of the prefix subject to horizontal partition and vertical split.
func (m *Model) NumSplittable() int {
	n := 0
	for _, l := range m.Layers {
		if !l.Splittable() {
			break
		}
		n++
	}
	return n
}

// SplittableLayers returns the Conv/MaxPool prefix of the model.
func (m *Model) SplittableLayers() []Layer { return m.Layers[:m.NumSplittable()] }

// FCLayers returns the trailing FC layers of the model (possibly empty).
func (m *Model) FCLayers() []Layer { return m.Layers[m.NumSplittable():] }

// TotalOps returns the total operation count of the model with no splitting.
func (m *Model) TotalOps() float64 {
	var sum float64
	for _, l := range m.Layers {
		sum += l.Ops()
	}
	return sum
}

// InputBytes returns the size of the model's input image in bytes.
func (m *Model) InputBytes() float64 {
	if len(m.Layers) == 0 {
		return 0
	}
	return m.Layers[0].InputBytes()
}

// Validate checks layer-by-layer dimensional compatibility: the output shape
// of each layer must match the input shape of the next, FC layers must come
// last, and every layer must itself be valid.
func (m *Model) Validate() error {
	if len(m.Layers) == 0 {
		return fmt.Errorf("cnn: model %q has no layers", m.Name)
	}
	seenFC := false
	for i, l := range m.Layers {
		if err := l.Validate(); err != nil {
			return fmt.Errorf("cnn: model %q layer %d: %w", m.Name, i, err)
		}
		if l.Kind == FC {
			seenFC = true
		} else if seenFC {
			return fmt.Errorf("cnn: model %q: splittable layer %d (%s) after FC layer", m.Name, i, l.Name)
		}
		if i == 0 {
			continue
		}
		prev := m.Layers[i-1]
		if l.Kind == FC {
			if prev.Kind == FC {
				if l.Cin != prev.Cout {
					return fmt.Errorf("cnn: model %q: fc layer %d input %d != previous output %d", m.Name, i, l.Cin, prev.Cout)
				}
			} else {
				want := prev.OutWidth() * prev.OutHeight() * prev.OutDepth()
				if l.Cin != want {
					return fmt.Errorf("cnn: model %q: fc layer %d input %d != flattened previous output %d", m.Name, i, l.Cin, want)
				}
			}
			continue
		}
		if l.Win != prev.OutWidth() || l.Hin != prev.OutHeight() || l.Cin != prev.OutDepth() {
			return fmt.Errorf("cnn: model %q: layer %d (%s) input %dx%dx%d != previous output %dx%dx%d",
				m.Name, i, l.Name, l.Win, l.Hin, l.Cin, prev.OutWidth(), prev.OutHeight(), prev.OutDepth())
		}
	}
	return nil
}

// Builder constructs sequential models with automatic shape chaining.
type Builder struct {
	name    string
	w, h, c int
	layers  []Layer
	flatten int // flattened feature count once FC section starts; 0 before
	err     error
}

// NewBuilder starts a model with the given input image shape.
func NewBuilder(name string, w, h, c int) *Builder {
	return &Builder{name: name, w: w, h: h, c: c}
}

// Conv appends a convolutional layer with cout filters of size f, stride s
// and padding p.
func (b *Builder) Conv(name string, cout, f, s, p int) *Builder {
	if b.err != nil {
		return b
	}
	l := Layer{Name: name, Kind: Conv, Win: b.w, Hin: b.h, Cin: b.c, Cout: cout, F: f, S: s, P: p}
	if err := l.Validate(); err != nil {
		b.err = err
		return b
	}
	b.layers = append(b.layers, l)
	b.w, b.h, b.c = l.OutWidth(), l.OutHeight(), l.OutDepth()
	return b
}

// Pool appends a max-pooling layer with window f and stride s.
func (b *Builder) Pool(name string, f, s int) *Builder {
	return b.PoolP(name, f, s, 0)
}

// PoolP appends a max-pooling layer with window f, stride s and padding p.
func (b *Builder) PoolP(name string, f, s, p int) *Builder {
	if b.err != nil {
		return b
	}
	l := Layer{Name: name, Kind: MaxPool, Win: b.w, Hin: b.h, Cin: b.c, Cout: b.c, F: f, S: s, P: p}
	if err := l.Validate(); err != nil {
		b.err = err
		return b
	}
	b.layers = append(b.layers, l)
	b.w, b.h, b.c = l.OutWidth(), l.OutHeight(), l.OutDepth()
	return b
}

// FC appends a fully-connected layer with n output units. The first FC layer
// flattens the preceding spatial output.
func (b *Builder) FC(name string, n int) *Builder {
	if b.err != nil {
		return b
	}
	in := b.flatten
	if in == 0 {
		in = b.w * b.h * b.c
	}
	l := Layer{Name: name, Kind: FC, Win: 1, Hin: 1, Cin: in, Cout: n}
	if err := l.Validate(); err != nil {
		b.err = err
		return b
	}
	b.layers = append(b.layers, l)
	b.flatten = n
	return b
}

// Build finalises the model, returning an error if any step failed or the
// assembled model does not validate.
func (b *Builder) Build() (*Model, error) {
	if b.err != nil {
		return nil, b.err
	}
	m := &Model{Name: b.name, Layers: b.layers}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// MustBuild is Build that panics on error; intended for the static model zoo
// where configurations are compile-time constants checked by tests.
func (b *Builder) MustBuild() *Model {
	m, err := b.Build()
	if err != nil {
		panic(err)
	}
	return m
}
