// Package tensor provides the dense float64 matrix operations the neural
// network and DDPG packages are built on. Matrices are row-major; rows are
// samples in minibatch operations.
//
// Where a product feeds an add, the code writes float64(x*y) + z: the
// explicit conversion rounds the product, which forbids the compiler to
// fuse the two into one multiply-add. arm64 would otherwise emit FMADD,
// rounding once instead of twice, and plan different bytes than amd64
// from the same seed.
package tensor

import (
	"fmt"
	"math/rand"

	"distredge/internal/simd"
)

// useAVX2 selects the AVX2 kernels: addTerms' 16-column tiles and the
// elementwise update kernels. It is simd.AVX2, and only the package's
// tests flip it.
var useAVX2 = simd.AVX2

// useAVX512 selects every AVX-512 kernel of the package: in MulABInto and
// MulATBInto one call per K-block of a wide product (mulRows), which
// gathers each row's nonzero terms and sums them into the whole row, and
// the narrow products (mulNarrow); and the one-call kernels of
// TransposeInto, the bias add of AddRowVec and the column sums of
// SumRowsInto. It is simd.AVX512, and only the package's tests flip it.
var useAVX512 = simd.AVX512

// Mat is a dense row-major matrix.
type Mat struct {
	R, C int
	A    []float64
}

// New returns a zeroed RxC matrix.
func New(r, c int) *Mat {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("tensor: negative dims %dx%d", r, c))
	}
	return &Mat{R: r, C: c, A: make([]float64, r*c)}
}

// FromSlice wraps data (length r*c, row-major) in a matrix without copying.
func FromSlice(r, c int, data []float64) *Mat {
	if len(data) != r*c {
		panic(fmt.Sprintf("tensor: %d values for %dx%d matrix", len(data), r, c))
	}
	return &Mat{R: r, C: c, A: data}
}

// At returns element (i,j).
func (m *Mat) At(i, j int) float64 { return m.A[i*m.C+j] }

// Set assigns element (i,j).
func (m *Mat) Set(i, j int, v float64) { m.A[i*m.C+j] = v }

// Row returns a view of row i.
func (m *Mat) Row(i int) []float64 { return m.A[i*m.C : (i+1)*m.C] }

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	c := New(m.R, m.C)
	copy(c.A, m.A)
	return c
}

// Randomize fills the matrix with U(-scale, scale) values.
func (m *Mat) Randomize(rng *rand.Rand, scale float64) {
	for i := range m.A {
		m.A[i] = (2*float64(rng.Float64()) - 1) * scale
	}
}

// kBlock is the K-block length of MulABInto and MulATBInto: the most terms
// one gather holds, sized so the gather arrays live on the stack and a
// block of b stays in cache while every row of the batch passes over it.
// It must be a power of two (the gather masks its index with kBlock-1).
const kBlock = 64

// MulABInto computes a·b into out (a.R × b.C), reusing out's storage. Each
// output element accumulates its terms in ascending k order, skipping zero
// a-elements, so results are bit-identical to the naive k-outer loop on
// finite values; out must not alias a or b. The work runs in K-blocks:
// with AVX-512 one kernel call per block gathers each row's nonzero
// a-elements eight at a time and sums them into the whole row, thirty-two
// columns per register tile, masked at the row's end (mulRows), or, for
// fewer than eight columns and at least eight rows, runs lanes across
// output rows (mulNarrow). Else each row's nonzero a-elements within a
// block are gathered first, then tiles of sixteen (with AVX2), eight, four
// and finally one columns sum them (addTerms). The block loop sits
// outside the row loop, so a block of b stays cache-resident across the
// batch.
func MulABInto(out, a, b *Mat) *Mat {
	if a.C != b.R {
		panic(fmt.Sprintf("tensor: MulABInto %dx%d · %dx%d", a.R, a.C, b.R, b.C))
	}
	if out.R != a.R || out.C != b.C {
		panic(fmt.Sprintf("tensor: MulABInto out %dx%d for %dx%d product", out.R, out.C, a.R, b.C))
	}
	n := b.C
	if useAVX512 && a.R > 0 && a.C > 0 && n > 0 {
		if narrow(a.R, n) {
			mulNarrow(out.A, a.A, b.A, a.R, a.C, n, a.C, 1)
			return out
		}
		for k0 := 0; k0 < a.C; k0 += kBlock {
			mulRows(out.A, a.A[k0:], b.A[k0*n:], a.R, min(kBlock, a.C-k0), n, a.C, 1, k0 == 0)
		}
		return out
	}
	clear(out.A)
	var off [kBlock]int
	var val [kBlock]float64
	for k0 := 0; k0 < a.C; k0 += kBlock {
		k1 := min(k0+kBlock, a.C)
		for i := 0; i < a.R; i++ {
			cnt, o := 0, k0*n
			for _, av := range a.A[i*a.C+k0 : i*a.C+k1] {
				off[cnt&(kBlock-1)], val[cnt&(kBlock-1)] = o, av
				if av != 0 { // a conditional move, not a branch
					cnt++
				}
				o += n
			}
			addTerms(out.A[i*n:(i+1)*n], b.A, off[:cnt], val[:cnt])
		}
	}
	return out
}

// narrow reports whether an m×n product (m, n and its number of terms
// positive) runs on the AVX-512 narrow kernel (mulNarrow): fewer than
// eight output columns, so a row is less than one vector wide, but at
// least eight rows, one vector down a column. Lanes then run across
// output rows, each summing its own terms in ascending k from +0 and
// skipping the zero a-elements, as the row kernels do.
func narrow(m, n int) bool {
	return n < 8 && m >= 8
}

// addTerms adds Σ_p val[p]·bA[off[p]+j] to orow[j] for every column j, the
// terms in list order: the sum of MulABInto and MulATBInto without
// AVX-512. Each output element is loaded once, summed in a register over
// the whole list and stored once; a float64 store and reload is exact, so
// splitting the sum across K-blocks changes no bit. Full 16-column tiles
// go to the AVX2 kernel where there is one (addTiles), and the 8/4/1 loops
// below take the rest of the row, or all of it.
func addTerms(orow, bA []float64, off []int, val []float64) {
	if len(off) == 0 || len(orow) == 0 {
		return
	}
	val = val[:len(off)]
	n := len(orow)
	j := 0
	if useAVX2 && n >= 16 {
		j = addTiles(orow, bA, off, val)
	}
	for ; j+8 <= n; j += 8 {
		o := orow[j : j+8 : j+8]
		c0, c1, c2, c3, c4, c5, c6, c7 := o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7]
		for p, av := range val {
			bb := (*[8]float64)(bA[off[p]+j:])
			c0 += float64(av * bb[0])
			c1 += float64(av * bb[1])
			c2 += float64(av * bb[2])
			c3 += float64(av * bb[3])
			c4 += float64(av * bb[4])
			c5 += float64(av * bb[5])
			c6 += float64(av * bb[6])
			c7 += float64(av * bb[7])
		}
		o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = c0, c1, c2, c3, c4, c5, c6, c7
	}
	for ; j+4 <= n; j += 4 {
		o := orow[j : j+4 : j+4]
		c0, c1, c2, c3 := o[0], o[1], o[2], o[3]
		for p, av := range val {
			bb := (*[4]float64)(bA[off[p]+j:])
			c0 += float64(av * bb[0])
			c1 += float64(av * bb[1])
			c2 += float64(av * bb[2])
			c3 += float64(av * bb[3])
		}
		o[0], o[1], o[2], o[3] = c0, c1, c2, c3
	}
	for ; j < n; j++ {
		c := orow[j]
		for p, av := range val {
			c += float64(av * bA[off[p]+j])
		}
		orow[j] = c
	}
}

// MulATBInto computes aᵀ·b into out (a.C × b.C), reusing out's storage;
// out must not alias a or b. It is MulABInto's kernel with column i of a
// gathered in place of a row (with AVX-512, eight strided elements per
// gather): per-element accumulation stays in ascending k order, skipping
// zero a-elements.
func MulATBInto(out, a, b *Mat) *Mat {
	if a.R != b.R {
		panic(fmt.Sprintf("tensor: MulATBInto (%dx%d)ᵀ · %dx%d", a.R, a.C, b.R, b.C))
	}
	if out.R != a.C || out.C != b.C {
		panic(fmt.Sprintf("tensor: MulATBInto out %dx%d for %dx%d product", out.R, out.C, a.C, b.C))
	}
	m, n := a.C, b.C
	if useAVX512 && m > 0 && a.R > 0 && n > 0 {
		if narrow(m, n) {
			mulNarrow(out.A, a.A, b.A, m, a.R, n, 1, m)
			return out
		}
		for k0 := 0; k0 < a.R; k0 += kBlock {
			mulRows(out.A, a.A[k0*m:], b.A[k0*n:], m, min(kBlock, a.R-k0), n, 1, m, k0 == 0)
		}
		return out
	}
	clear(out.A)
	var off [kBlock]int
	var val [kBlock]float64
	for k0 := 0; k0 < a.R; k0 += kBlock {
		k1 := min(k0+kBlock, a.R)
		for i := 0; i < m; i++ {
			cnt := 0
			for k := k0; k < k1; k++ {
				av := a.A[k*m+i]
				off[cnt&(kBlock-1)], val[cnt&(kBlock-1)] = k*n, av
				if av != 0 { // a conditional move, not a branch
					cnt++
				}
			}
			addTerms(out.A[i*n:(i+1)*n], b.A, off[:cnt], val[:cnt])
		}
	}
	return out
}

// TransposeInto writes mᵀ into out (m.C × m.R), reusing out's storage.
// With AVX-512 one kernel call gathers each output row from m's column.
func TransposeInto(out, m *Mat) *Mat {
	if out.R != m.C || out.C != m.R {
		panic(fmt.Sprintf("tensor: TransposeInto out %dx%d for %dx%d", out.R, out.C, m.C, m.R))
	}
	if useAVX512 && m.R > 0 && m.C > 0 {
		transpose(out.A, m.A, m.R, m.C)
		return out
	}
	for i := 0; i < m.R; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.A[j*out.C+i] = v
		}
	}
	return out
}

// AddRowVec adds vector v to every row of m in place (bias broadcast):
// m[i][j] + v[j], as AddTo adds. With AVX-512 one kernel call takes the
// whole matrix, 32 columns of v at a time held in registers over every
// row.
func (m *Mat) AddRowVec(v []float64) {
	if len(v) != m.C {
		panic(fmt.Sprintf("tensor: AddRowVec len %d to %d cols", len(v), m.C))
	}
	if useAVX512 && m.R > 0 && m.C > 0 {
		addRowVec(m.A, v, m.R, m.C)
		return
	}
	for i := 0; i < m.R; i++ {
		AddTo(m.Row(i), v)
	}
}

// SumRowsInto computes the column-wise sum of m into out (length m.C):
// each sum starts from +0 and adds the rows in ascending order. With
// AVX-512 one kernel call sums every column.
func (m *Mat) SumRowsInto(out []float64) []float64 {
	if len(out) != m.C {
		panic(fmt.Sprintf("tensor: SumRowsInto len %d for %d cols", len(out), m.C))
	}
	if useAVX512 && m.R > 0 && m.C > 0 {
		sumRows(out, m.A, m.R, m.C)
		return out
	}
	clear(out)
	for i := 0; i < m.R; i++ {
		AddTo(out, m.Row(i))
	}
	return out
}

// HStackInto concatenates a and b column-wise into out (a.R × a.C+b.C).
func HStackInto(out, a, b *Mat) *Mat {
	if a.R != b.R {
		panic(fmt.Sprintf("tensor: HStackInto %dx%d | %dx%d", a.R, a.C, b.R, b.C))
	}
	if out.R != a.R || out.C != a.C+b.C {
		panic(fmt.Sprintf("tensor: HStackInto out %dx%d for %dx%d", out.R, out.C, a.R, a.C+b.C))
	}
	for i := 0; i < a.R; i++ {
		copy(out.Row(i)[:a.C], a.Row(i))
		copy(out.Row(i)[a.C:], b.Row(i))
	}
	return out
}
