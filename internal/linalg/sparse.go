package linalg

import (
	"cmp"
	"fmt"
	"slices"
)

// Triplet is a single (row, col, value) entry used to assemble a sparse
// matrix incrementally.
type Triplet struct {
	Row, Col int
	Val      float64
}

// COO accumulates triplets and converts them to CSR form. Duplicate
// (row, col) entries are summed, matching the usual assembly semantics for
// infinitesimal generators.
type COO struct {
	rows, cols int
	entries    []Triplet
}

// NewCOO returns an empty rows×cols accumulator.
func NewCOO(rows, cols int) *COO {
	return &COO{rows: rows, cols: cols}
}

// Add records v at (i, j). Out-of-range indices return an error.
func (c *COO) Add(i, j int, v float64) error {
	if i < 0 || i >= c.rows || j < 0 || j >= c.cols {
		return fmt.Errorf("coo add: (%d,%d) outside %dx%d: %w", i, j, c.rows, c.cols, ErrDimensionMismatch)
	}
	if v == 0 { //numvet:allow float-eq exact zeros are structurally absent from a sparse matrix
		return nil
	}
	c.entries = append(c.entries, Triplet{Row: i, Col: j, Val: v})
	return nil
}

// ToCSR sorts and compresses the accumulated entries.
func (c *COO) ToCSR() *CSR {
	slices.SortFunc(c.entries, func(a, b Triplet) int {
		if a.Row != b.Row {
			return cmp.Compare(a.Row, b.Row)
		}
		return cmp.Compare(a.Col, b.Col)
	})
	m := &CSR{
		rows:   c.rows,
		cols:   c.cols,
		rowPtr: make([]int, c.rows+1),
	}
	for k := 0; k < len(c.entries); {
		e := c.entries[k]
		v := e.Val
		k++
		for k < len(c.entries) && c.entries[k].Row == e.Row && c.entries[k].Col == e.Col {
			v += c.entries[k].Val
			k++
		}
		if v != 0 { //numvet:allow float-eq exact zeros are structurally absent from a sparse matrix
			m.colIdx = append(m.colIdx, e.Col)
			m.vals = append(m.vals, v)
			m.rowPtr[e.Row+1]++
		}
	}
	for i := 0; i < c.rows; i++ {
		m.rowPtr[i+1] += m.rowPtr[i]
	}
	return m
}

// CSR is a compressed-sparse-row matrix.
type CSR struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	vals       []float64
}

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ returns the number of stored nonzeros.
func (m *CSR) NNZ() int { return len(m.vals) }

// At returns the element at (i, j) (zero if not stored). O(row nnz).
func (m *CSR) At(i, j int) float64 {
	if k := m.Slot(i, j); k >= 0 {
		return m.vals[k]
	}
	return 0
}

// Slot returns the position of entry (i, j) in the matrix's value array,
// or -1 when the pattern does not store it. O(row nnz).
func (m *CSR) Slot(i, j int) int {
	for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
		if m.colIdx[k] == j {
			return k
		}
	}
	return -1
}

// WithValues returns a matrix with m's sparsity pattern and the given
// values, one per stored entry in value-array order (see Slot). The
// pattern is shared, not copied: no CSR is modified after construction,
// so any number of matrices may share one. vals becomes the new
// matrix's.
func (m *CSR) WithValues(vals []float64) (*CSR, error) {
	if len(vals) != len(m.vals) {
		return nil, fmt.Errorf("csr with values: %d values for %d entries: %w", len(vals), len(m.vals), ErrDimensionMismatch)
	}
	return &CSR{rows: m.rows, cols: m.cols, rowPtr: m.rowPtr, colIdx: m.colIdx, vals: vals}, nil
}

// RowRange calls fn(col, val) for every stored entry of row i.
func (m *CSR) RowRange(i int, fn func(col int, val float64)) {
	for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
		fn(m.colIdx[k], m.vals[k])
	}
}

// MulVec computes y = m·x.
func (m *CSR) MulVec(x []float64) ([]float64, error) {
	if len(x) != m.cols {
		return nil, fmt.Errorf("csr mulvec: %d cols vs len %d: %w", m.cols, len(x), ErrDimensionMismatch)
	}
	y := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		var s float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.vals[k] * x[m.colIdx[k]]
		}
		y[i] = s
	}
	return y, nil
}

// VecMul computes y = xᵀ·m.
func (m *CSR) VecMul(x []float64) ([]float64, error) {
	if len(x) != m.rows {
		return nil, fmt.Errorf("csr vecmul: %d rows vs len %d: %w", m.rows, len(x), ErrDimensionMismatch)
	}
	y := make([]float64, m.cols)
	for i := 0; i < m.rows; i++ {
		xi := x[i]
		if xi == 0 { //numvet:allow float-eq skipping exact zeros is a sparsity optimization
			continue
		}
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			y[m.colIdx[k]] += xi * m.vals[k]
		}
	}
	return y, nil
}

// ToDense expands the matrix; intended for tests and small systems.
func (m *CSR) ToDense() *Dense {
	d := NewDense(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			d.Set(i, m.colIdx[k], m.vals[k])
		}
	}
	return d
}

// Transpose returns mᵀ in CSR form.
func (m *CSR) Transpose() *CSR {
	t := &CSR{
		rows:   m.cols,
		cols:   m.rows,
		rowPtr: make([]int, m.cols+1),
		colIdx: make([]int, len(m.colIdx)),
		vals:   make([]float64, len(m.vals)),
	}
	for _, c := range m.colIdx {
		t.rowPtr[c+1]++
	}
	for i := 0; i < t.rows; i++ {
		t.rowPtr[i+1] += t.rowPtr[i]
	}
	next := make([]int, t.rows)
	copy(next, t.rowPtr[:t.rows])
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			c := m.colIdx[k]
			pos := next[c]
			t.colIdx[pos] = i
			t.vals[pos] = m.vals[k]
			next[c]++
		}
	}
	return t
}
