// Package cnn models convolutional neural networks at the
// configuration level: layer shapes, operation counts, data volumes, and
// the Vertical-Splitting Law (VSL) of the DistrEdge paper (Eq. 1-2).
//
// No numerics are performed; DistrEdge is a scheduler and only consumes
// shapes, operation counts and byte volumes. Layers are sequential, which
// matches the paper's treatment (Section III-C, challenge 4).
package cnn

import "fmt"

// Kind identifies the type of a layer.
type Kind int

const (
	// Conv is a 2D convolutional layer.
	Conv Kind = iota
	// MaxPool is a 2D max-pooling layer.
	MaxPool
	// FC is a fully-connected layer. FC layers are not split; the paper
	// computes them on the provider holding the largest share of the last
	// layer-volume (Section V-A).
	FC
)

// String returns a short human-readable name for the layer kind.
func (k Kind) String() string {
	switch k {
	case Conv:
		return "conv"
	case MaxPool:
		return "maxpool"
	case FC:
		return "fc"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// BytesPerElem is the storage size of one activation element. The paper's
// testbed runs TensorRT in FP16, so 2 bytes.
const BytesPerElem = 2

// Layer is one layer of a CNN, described by its configuration exactly as in
// Section III-B of the paper: input width/height/depth, output depth, filter
// size, stride and padding. For FC layers only Cin (input features) and Cout
// (output features) are meaningful; Win=Hin=1 by convention.
type Layer struct {
	Name string
	Kind Kind

	Win, Hin, Cin int // input width, height, depth
	Cout          int // output depth (Conv: filters; MaxPool: = Cin; FC: units)
	F, S, P       int // filter size, stride, padding
}

// OutWidth returns the output width of the layer.
func (l Layer) OutWidth() int {
	if l.Kind == FC {
		return 1
	}
	return (l.Win+2*l.P-l.F)/l.S + 1
}

// OutHeight returns the output height of the layer.
func (l Layer) OutHeight() int {
	if l.Kind == FC {
		return 1
	}
	return (l.Hin+2*l.P-l.F)/l.S + 1
}

// OutDepth returns the output depth of the layer.
func (l Layer) OutDepth() int { return l.Cout }

// Splittable reports whether the layer participates in vertical splitting.
// Conv and MaxPool layers are splittable; FC layers are not (Section V-A).
func (l Layer) Splittable() bool { return l.Kind == Conv || l.Kind == MaxPool }

// OpsRows returns the number of operations needed to compute the given
// number of output rows of the layer. Convolutions count multiply-accumulate
// pairs as two operations; max-pooling counts one comparison per window
// element. Negative or zero rows cost nothing.
func (l Layer) OpsRows(rows int) float64 {
	if rows <= 0 {
		return 0
	}
	w := float64(l.OutWidth())
	switch l.Kind {
	case Conv:
		return 2 * float64(l.F) * float64(l.F) * float64(l.Cin) * float64(l.Cout) * w * float64(rows)
	case MaxPool:
		return float64(l.F) * float64(l.F) * float64(l.Cin) * w * float64(rows)
	case FC:
		return 2 * float64(l.Cin) * float64(l.Cout)
	default:
		return 0
	}
}

// Ops returns the total number of operations of the full layer.
func (l Layer) Ops() float64 {
	if l.Kind == FC {
		return l.OpsRows(1)
	}
	return l.OpsRows(l.OutHeight())
}

// OutRowBytes returns the size in bytes of one output row of the layer.
// width × depth is rounded before ×BytesPerElem, which compiles to an add
// that arm64 would otherwise fuse with it into one FMADD.
func (l Layer) OutRowBytes() float64 {
	if l.Kind == FC {
		return float64(l.Cout) * BytesPerElem
	}
	return float64(float64(l.OutWidth())*float64(l.Cout)) * BytesPerElem
}

// InRowBytes returns the size in bytes of one input row, as OutRowBytes.
func (l Layer) InRowBytes() float64 {
	if l.Kind == FC {
		return float64(l.Cin) * BytesPerElem
	}
	return float64(float64(l.Win)*float64(l.Cin)) * BytesPerElem
}

// OutputBytes returns the total output activation size of the layer in bytes.
func (l Layer) OutputBytes() float64 {
	if l.Kind == FC {
		return l.OutRowBytes()
	}
	return l.OutRowBytes() * float64(l.OutHeight())
}

// InputBytes returns the total input activation size of the layer in bytes.
func (l Layer) InputBytes() float64 {
	if l.Kind == FC {
		return l.InRowBytes()
	}
	return l.InRowBytes() * float64(l.Hin)
}

// Validate checks that the layer configuration is internally consistent.
func (l Layer) Validate() error {
	switch l.Kind {
	case Conv, MaxPool:
		if l.Win <= 0 || l.Hin <= 0 || l.Cin <= 0 {
			return fmt.Errorf("cnn: layer %q: non-positive input dims %dx%dx%d", l.Name, l.Win, l.Hin, l.Cin)
		}
		if l.F <= 0 || l.S <= 0 || l.P < 0 {
			return fmt.Errorf("cnn: layer %q: invalid filter/stride/padding F=%d S=%d P=%d", l.Name, l.F, l.S, l.P)
		}
		if l.Cout <= 0 {
			return fmt.Errorf("cnn: layer %q: non-positive output depth %d", l.Name, l.Cout)
		}
		if l.Kind == MaxPool && l.Cout != l.Cin {
			return fmt.Errorf("cnn: layer %q: maxpool must preserve depth (Cin=%d Cout=%d)", l.Name, l.Cin, l.Cout)
		}
		if l.OutWidth() <= 0 || l.OutHeight() <= 0 {
			return fmt.Errorf("cnn: layer %q: non-positive output dims %dx%d", l.Name, l.OutWidth(), l.OutHeight())
		}
	case FC:
		if l.Cin <= 0 || l.Cout <= 0 {
			return fmt.Errorf("cnn: layer %q: fc needs positive Cin/Cout, got %d/%d", l.Name, l.Cin, l.Cout)
		}
	default:
		return fmt.Errorf("cnn: layer %q: unknown kind %d", l.Name, int(l.Kind))
	}
	return nil
}
