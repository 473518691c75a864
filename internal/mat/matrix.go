// Package mat provides the dense linear-algebra substrate used by system
// identification (least-squares ARX fitting) and controller synthesis
// (the discrete Riccati equation). The paper relied on MATLAB's robust
// control toolbox for these steps; this package implements the numerical
// kernels needed to perform the same synthesis offline in pure Go.
//
// Matrices are dense, row-major, and always of type float64. Operations
// that can fail (singular solves, non-converging iterations) return errors
// rather than panicking; dimension mismatches panic because they indicate
// programmer error, mirroring the stdlib convention for slice indexing.
package mat

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense, row-major matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// New returns a zero matrix with the given dimensions.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices. All rows must have equal length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			panic(fmt.Sprintf("mat: ragged rows: row %d has %d cols, want %d", i, len(r), c))
		}
		copy(m.data[i*c:(i+1)*c], r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Diag returns a square matrix with v on the diagonal.
func Diag(v []float64) *Matrix {
	m := New(len(v), len(v))
	for i, x := range v {
		m.Set(i, i, x)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// check panics on an out-of-range index. The formatted panic only runs on
// the failure path, so hot callers are not charged for it.
//
//maya:coldpath
func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// SetRow copies v into row i.
func (m *Matrix) SetRow(i int, v []float64) {
	if len(v) != m.cols {
		panic(fmt.Sprintf("mat: SetRow length %d != cols %d", len(v), m.cols))
	}
	copy(m.data[i*m.cols:(i+1)*m.cols], v)
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// Add returns m + b.
func (m *Matrix) Add(b *Matrix) *Matrix {
	m.sameShape(b, "Add")
	out := m.Clone()
	for i := range out.data {
		out.data[i] += b.data[i]
	}
	return out
}

// Sub returns m - b.
func (m *Matrix) Sub(b *Matrix) *Matrix {
	m.sameShape(b, "Sub")
	out := m.Clone()
	for i := range out.data {
		out.data[i] -= b.data[i]
	}
	return out
}

// Scale returns s * m.
func (m *Matrix) Scale(s float64) *Matrix {
	out := m.Clone()
	for i := range out.data {
		out.data[i] *= s
	}
	return out
}

// Mul returns the matrix product m * b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul dimension mismatch %dx%d * %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := New(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		mrow := m.data[i*m.cols : (i+1)*m.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for k, mv := range mrow {
			if mv == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += mv * bv
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m * v.
func (m *Matrix) MulVec(v []float64) []float64 {
	if m.cols != len(v) {
		panic(fmt.Sprintf("mat: MulVec dimension mismatch %dx%d * %d", m.rows, m.cols, len(v)))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		s := 0.0
		for j, rv := range row {
			s += rv * v[j]
		}
		out[i] = s
	}
	return out
}

// MulVecTo computes m*v into dst, which must have length m.Rows().
// It performs no allocation; this is the hot path of the runtime controller.
func (m *Matrix) MulVecTo(dst, v []float64) {
	if m.cols != len(v) || m.rows != len(dst) {
		m.badMulVecTo(len(dst), len(v))
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		s := 0.0
		for j, rv := range row {
			s += rv * v[j]
		}
		dst[i] = s
	}
}

// badMulVecTo panics with the dimension-mismatch detail. The formatting
// only runs on the failure path, so hot callers are not charged for it.
//
//maya:coldpath
func (m *Matrix) badMulVecTo(dstLen, vLen int) {
	panic(fmt.Sprintf("mat: MulVecTo dimension mismatch dst[%d] = %dx%d * v[%d]", dstLen, m.rows, m.cols, vLen))
}

func (m *Matrix) sameShape(b *Matrix, op string) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d vs %dx%d", op, m.rows, m.cols, b.rows, b.cols))
	}
}

// Slice returns the submatrix with rows [r0,r1) and columns [c0,c1) as a copy.
func (m *Matrix) Slice(r0, r1, c0, c1 int) *Matrix {
	if r0 < 0 || r1 > m.rows || c0 < 0 || c1 > m.cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("mat: Slice [%d:%d,%d:%d] out of range %dx%d", r0, r1, c0, c1, m.rows, m.cols))
	}
	out := New(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(out.data[(i-r0)*out.cols:(i-r0+1)*out.cols], m.data[i*m.cols+c0:i*m.cols+c1])
	}
	return out
}

// SetSlice copies src into m starting at (r0, c0).
func (m *Matrix) SetSlice(r0, c0 int, src *Matrix) {
	if r0+src.rows > m.rows || c0+src.cols > m.cols || r0 < 0 || c0 < 0 {
		panic(fmt.Sprintf("mat: SetSlice %dx%d at (%d,%d) exceeds %dx%d", src.rows, src.cols, r0, c0, m.rows, m.cols))
	}
	for i := 0; i < src.rows; i++ {
		copy(m.data[(r0+i)*m.cols+c0:(r0+i)*m.cols+c0+src.cols], src.data[i*src.cols:(i+1)*src.cols])
	}
}

// MaxAbs returns the largest absolute element value (the max norm).
func (m *Matrix) MaxAbs() float64 {
	max := 0.0
	for _, v := range m.data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// FrobeniusNorm returns sqrt(sum of squared elements).
func (m *Matrix) FrobeniusNorm() float64 {
	s := 0.0
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Equal reports whether m and b have the same shape and all elements within tol.
func (m *Matrix) Equal(b *Matrix, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i := range m.data {
		if math.Abs(m.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		b.WriteString("[")
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%10.5g", m.At(i, j))
		}
		b.WriteString("]\n")
	}
	return b.String()
}

// ErrSingular is returned when a solve encounters a (numerically) singular matrix.
var ErrSingular = errors.New("mat: matrix is singular to working precision")
