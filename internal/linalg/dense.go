package linalg

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a zero rows×cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		rows, cols = 0, 0
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set stores v at (i, j).
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Add adds v to the element at (i, j).
func (m *Dense) Add(i, j int, v float64) { m.data[i*m.cols+j] += v }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// Row returns a view of row i (not a copy).
func (m *Dense) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// MulVec computes y = m·x. It returns an error on shape mismatch.
func (m *Dense) MulVec(x []float64) ([]float64, error) { //numvet:allow unused-export oracle: checks LUSolve in TestLUSolveRandomProperty
	if len(x) != m.cols {
		return nil, fmt.Errorf("mulvec: %d cols vs len %d: %w", m.cols, len(x), ErrDimensionMismatch)
	}
	y := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y, nil
}

// VecMul computes y = xᵀ·m (row vector times matrix).
func (m *Dense) VecMul(x []float64) ([]float64, error) {
	if len(x) != m.rows {
		return nil, fmt.Errorf("vecmul: %d rows vs len %d: %w", m.rows, len(x), ErrDimensionMismatch)
	}
	y := make([]float64, m.cols)
	for i := 0; i < m.rows; i++ {
		xi := x[i]
		if xi == 0 { //numvet:allow float-eq skipping exact zeros is a sparsity optimization
			continue
		}
		row := m.Row(i)
		for j, v := range row {
			y[j] += xi * v
		}
	}
	return y, nil
}

// Mul returns the matrix product m·b.
func (m *Dense) Mul(b *Dense) (*Dense, error) {
	if m.cols != b.rows {
		return nil, fmt.Errorf("mul: %dx%d by %dx%d: %w", m.rows, m.cols, b.rows, b.cols, ErrDimensionMismatch)
	}
	out := NewDense(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		arow := m.Row(i)
		orow := out.Row(i)
		for k, aik := range arow {
			if aik == 0 { //numvet:allow float-eq skipping exact zeros is a sparsity optimization
				continue
			}
			brow := b.Row(k)
			for j, bkj := range brow {
				orow[j] += aik * bkj
			}
		}
	}
	return out, nil
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	var sb strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%12.6g", m.At(i, j))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// LUSolve solves a·x = b by Gaussian elimination with partial pivoting.
// a is not modified. It returns an error if a is not square, shapes
// mismatch, or a is (numerically) singular.
func LUSolve(a *Dense, b []float64) ([]float64, error) {
	n := a.rows
	if a.cols != n {
		return nil, fmt.Errorf("lusolve: matrix %dx%d not square: %w", a.rows, a.cols, ErrDimensionMismatch)
	}
	if len(b) != n {
		return nil, fmt.Errorf("lusolve: rhs len %d, want %d: %w", len(b), n, ErrDimensionMismatch)
	}
	// Work on copies.
	lu := a.Clone()
	x := Clone(b)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		p := col
		best := math.Abs(lu.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(lu.At(r, col)); v > best {
				best, p = v, r
			}
		}
		if best == 0 { //numvet:allow float-eq exactly-zero pivot means structural singularity
			return nil, fmt.Errorf("lusolve: singular matrix at column %d", col)
		}
		if p != col {
			ra, rb := lu.Row(col), lu.Row(p)
			for j := range ra {
				ra[j], rb[j] = rb[j], ra[j]
			}
			x[col], x[p] = x[p], x[col]
		}
		piv := lu.At(col, col)
		for r := col + 1; r < n; r++ {
			f := lu.At(r, col) / piv
			if f == 0 { //numvet:allow float-eq skipping exact zeros is a sparsity optimization
				continue
			}
			lu.Set(r, col, 0)
			rrow, prow := lu.Row(r), lu.Row(col)
			for j := col + 1; j < n; j++ {
				rrow[j] -= f * prow[j]
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		row := lu.Row(i)
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return x, nil
}
