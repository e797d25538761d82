// Package mat holds the numeric storage the characterization method
// runs on: a dense row-major float64 matrix with row normalization (the
// Û of the paper), and Exact, the order-independent accumulator behind
// every Equation 3 group sum.
//
// The package is deliberately minimal and allocation-conscious rather than
// a general linear-algebra library: matrices here are at most a few million
// rows by a handful of columns.
package mat

import (
	"errors"
	"fmt"
)

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("mat: incompatible shapes")

// Matrix is a dense row-major matrix of float64: a single flat backing
// slice with stride Cols(). Row i occupies data[i*cols : (i+1)*cols], so
// RowView hands out zero-copy views and the whole matrix walks linearly
// in memory — the layout the clustering engine's hot loops rely on.
type Matrix struct {
	rows, cols int
	data       []float64
}

// New returns a zero matrix with the given shape. It panics if either
// dimension is non-positive, since a zero-sized matrix is always a
// programming error in this codebase.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows, copying the
// data.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("%w: empty row set", ErrShape)
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			return nil, fmt.Errorf("%w: row %d has %d cols, want %d", ErrShape, i, len(r), m.cols)
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m, nil
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Data returns the row-major backing slice itself, for hot loops that
// want to walk the matrix without per-row slicing. Mutating it mutates
// the matrix.
func (m *Matrix) Data() []float64 { return m.data }

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

// Add adds v to the element at (i, j).
func (m *Matrix) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of %d", i, m.rows))
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// RowView returns row i as a slice aliasing the matrix storage. Mutating
// the slice mutates the matrix; callers that need isolation should use
// Row.
func (m *Matrix) RowView(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Resize sets m's row count, keeping its leading rows. Rows past the old
// count hold unspecified values until the caller writes them. Storage
// grows as ResizeRows grows it.
func (m *Matrix) Resize(rows int) {
	if rows <= 0 {
		panic(fmt.Sprintf("mat: invalid shape %dx%d", rows, m.cols))
	}
	m.data = ResizeRows(m.data, rows, m.cols)
	m.rows = rows
}

// ResizeRows returns col, a row-major column of width elements per row,
// resized to rows rows, keeping its leading rows. It reuses col's backing
// array when the capacity suffices. Otherwise it copies into a new array
// with rows/64 + 1 rows of headroom, so a stream of small appends
// reallocates rarely and the spare memory stays a bounded fraction
// (append's growth would leave up to a quarter of a million-row column
// spare). Elements past the old length hold unspecified values.
func ResizeRows[T any](col []T, rows, width int) []T {
	need := rows * width
	if need <= cap(col) {
		return col[:need]
	}
	grown := make([]T, need, (rows+rows/64+1)*width)
	copy(grown, col)
	return grown
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// NormalizeRows scales every row of m in place so it sums to 1, turning
// count rows into discrete distributions (the Û of the paper). Rows whose
// sum is zero are left untouched and reported in the returned slice so the
// caller can drop or inspect them.
func (m *Matrix) NormalizeRows() (zeroRows []int) {
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		sum := 0.0
		for _, v := range row {
			sum += v
		}
		if sum == 0 {
			zeroRows = append(zeroRows, i)
			continue
		}
		for j := range row {
			row[j] /= sum
		}
	}
	return zeroRows
}
