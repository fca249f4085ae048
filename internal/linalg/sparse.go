package linalg

import (
	"fmt"
)

// Builder assembles a sparse matrix from (row, col, value) entries added
// in any order. Entries at one position are summed in the order they
// were added, and a position whose sum is exactly zero is not stored.
type Builder struct {
	rows, cols int
	row, col   []int
	val        []float64
}

// NewBuilder returns an empty rows×cols builder.
func NewBuilder(rows, cols int) *Builder {
	return &Builder{rows: rows, cols: cols}
}

// Add records v at (i, j). Out-of-range indices return an error.
func (b *Builder) Add(i, j int, v float64) error {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		return fmt.Errorf("csr builder add: (%d,%d) outside %dx%d: %w", i, j, b.rows, b.cols, ErrDimensionMismatch)
	}
	if v == 0 { //numvet:allow float-eq exact zeros are structurally absent from a sparse matrix
		return nil
	}
	b.row = append(b.row, i)
	b.col = append(b.col, j)
	b.val = append(b.val, v)
	return nil
}

// Build returns the assembled matrix (see Assemble for the order).
func (b *Builder) Build() *CSR {
	m, slots := assemble(b.rows, b.cols, b.row, b.col, false)
	for k, v := range b.val {
		m.vals[slots[k]] += v
	}
	return m.dropZeros()
}

// Assemble lays out a rows×cols matrix with an entry at (row[k], col[k])
// for every k and, when diag is set, one at (i, i) for every row i that
// has an entry. It returns the matrix, every value zero, and the slot of
// each entry in its value array: entry k's is slots[k], and with diag row
// i's diagonal is slots[len(row)+i] (-1 for a row without entries).
// Entries at one position share a slot, so a caller that adds entry
// values into their slots in order sums a duplicated position in entry
// order. Rows come first and columns ascend within a row.
//
// The layout is a stable counting sort, by column and then by row, in
// O(rows + cols + entries): it compares no pairs and copies no values.
// An index out of range or a length mismatch returns an error.
func Assemble(rows, cols int, row, col []int, diag bool) (*CSR, []int, error) {
	if len(row) != len(col) {
		return nil, nil, fmt.Errorf("csr assemble: %d rows for %d columns: %w", len(row), len(col), ErrDimensionMismatch)
	}
	if diag && rows != cols {
		return nil, nil, fmt.Errorf("csr assemble: diagonal of a %dx%d matrix: %w", rows, cols, ErrDimensionMismatch)
	}
	for k, i := range row {
		if j := col[k]; i < 0 || i >= rows || j < 0 || j >= cols {
			return nil, nil, fmt.Errorf("csr assemble: (%d,%d) outside %dx%d: %w", i, j, rows, cols, ErrDimensionMismatch)
		}
	}
	m, slots := assemble(rows, cols, row, col, diag)
	return m, slots, nil
}

// assemble is Assemble on checked input. Entry k is id k, and row i's
// diagonal is id len(row)+i.
func assemble(rows, cols int, row, col []int, diag bool) (*CSR, []int) {
	ne := len(row)
	// perRow counts each row's entries, diagonal included, so that
	// perRow[i+1] ends as the start of row i+1 in the row-major order;
	// it becomes the matrix's rowPtr. perCol does the same for columns.
	counts := make([]int, rows+1+cols+1)
	perRow, perCol := counts[:rows+1], counts[rows+1:]
	for _, i := range row {
		perRow[i+1]++
	}
	nd := 0
	if diag {
		nd = rows
	}
	ids := make([]int, ne+nd)
	hasDiag := func(i int) bool { return diag && perRow[i+1] > 0 }
	// First pass: the ids in column order, stable, diagonals last among
	// their column's entries. perCol[j] ends as the start of column j.
	for _, j := range col {
		perCol[j+1]++
	}
	for i := 0; i < nd; i++ {
		if hasDiag(i) {
			perCol[i+1]++
		}
	}
	for j := 0; j < cols; j++ {
		perCol[j+1] += perCol[j]
	}
	byCol := ids[:perCol[cols]]
	for k, j := range col {
		byCol[perCol[j]] = k
		perCol[j]++
	}
	for i := 0; i < nd; i++ {
		if hasDiag(i) {
			byCol[perCol[i]] = ne + i
			perCol[i]++
		}
	}
	// Second pass: the same ids in row order, stable, so columns ascend
	// within a row and one position's entries keep their order.
	for i := 0; i < nd; i++ {
		if hasDiag(i) {
			perRow[i+1]++
		}
	}
	for i := 0; i < rows; i++ {
		perRow[i+1] += perRow[i]
	}
	byRow := make([]int, len(byCol))
	next := perCol // perCol is spent; reuse it as the row cursors
	if len(next) < rows {
		next = make([]int, rows)
	}
	copy(next, perRow[:rows])
	colOf := func(id int) int {
		if id >= ne {
			return id - ne
		}
		return col[id]
	}
	rowOf := func(id int) int {
		if id >= ne {
			return id - ne
		}
		return row[id]
	}
	for _, id := range byCol {
		i := rowOf(id)
		byRow[next[i]] = id
		next[i]++
	}
	// Compress: consecutive ids at one position share a slot. ids is
	// spent too, so it becomes the slot table, and perRow turns into
	// rowPtr as each row's end is read.
	slots := ids
	for i := ne; i < len(slots); i++ {
		slots[i] = -1
	}
	m := &CSR{rows: rows, cols: cols, rowPtr: perRow, colIdx: make([]int, 0, len(byRow))}
	start := 0
	for i := 0; i < rows; i++ {
		end, last := perRow[i+1], -1
		for _, id := range byRow[start:end] {
			if j := colOf(id); j != last {
				m.colIdx = append(m.colIdx, j)
				last = j
			}
			slots[id] = len(m.colIdx) - 1
		}
		perRow[i+1], start = len(m.colIdx), end
	}
	m.vals = make([]float64, len(m.colIdx))
	return m, slots
}

// dropZeros removes stored entries that are exactly zero, in place.
func (m *CSR) dropZeros() *CSR {
	w := 0
	for i := 0; i < m.rows; i++ {
		lo, hi := m.rowPtr[i], m.rowPtr[i+1]
		m.rowPtr[i] = w
		for k := lo; k < hi; k++ {
			if m.vals[k] != 0 { //numvet:allow float-eq exact zeros are structurally absent from a sparse matrix
				m.colIdx[w], m.vals[w] = m.colIdx[k], m.vals[k]
				w++
			}
		}
	}
	m.rowPtr[m.rows] = w
	m.colIdx, m.vals = m.colIdx[:w], m.vals[:w]
	return m
}

// CSR is a compressed-sparse-row matrix.
type CSR struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	vals       []float64
	// tr, when set, is the pattern's transpose (see WithTranspose); every
	// matrix WithValues makes from this one shares it.
	tr *transposition
}

// transposition is the transpose of a sparsity pattern: its structure,
// and the position pos[k] that entry k of the pattern takes in it.
type transposition struct {
	rowPtr, colIdx, pos []int
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
	return &CSR{rows: m.rows, cols: m.cols, rowPtr: m.rowPtr, colIdx: m.colIdx, vals: vals, tr: m.tr}, nil
}

// Row returns the columns and values stored in row i, in column order.
// Both alias the matrix; do not modify them.
func (m *CSR) Row(i int) ([]int, []float64) {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	return m.colIdx[lo:hi], m.vals[lo:hi]
}

// WithDiagonal returns a square matrix with m's entries whose pattern
// stores every diagonal entry, a missing one as 0. It returns m itself
// when m stores them all already.
func (m *CSR) WithDiagonal() (*CSR, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("csr with diagonal: %dx%d not square: %w", m.rows, m.cols, ErrDimensionMismatch)
	}
	missing := 0
	for i := 0; i < m.rows; i++ {
		if m.Slot(i, i) < 0 {
			missing++
		}
	}
	if missing == 0 {
		return m, nil
	}
	d := &CSR{rows: m.rows, cols: m.cols, rowPtr: make([]int, m.rows+1),
		colIdx: make([]int, 0, len(m.colIdx)+missing), vals: make([]float64, 0, len(m.vals)+missing)}
	for i := 0; i < m.rows; i++ {
		cols, vals := m.Row(i)
		placed := false
		for k, j := range cols {
			if !placed && j >= i {
				if j > i {
					d.colIdx = append(d.colIdx, i)
					d.vals = append(d.vals, 0)
				}
				placed = true
			}
			d.colIdx = append(d.colIdx, j)
			d.vals = append(d.vals, vals[k])
		}
		if !placed {
			d.colIdx = append(d.colIdx, i)
			d.vals = append(d.vals, 0)
		}
		d.rowPtr[i+1] = len(d.colIdx)
	}
	return d, nil
}

// WithTranspose returns m with its pattern's transpose kept alongside:
// Transpose of it, or of any matrix WithValues makes from it, then places
// the values without laying the pattern out again. Like the pattern, the
// kept transpose is never modified, so the matrices may be shared.
func (m *CSR) WithTranspose() *CSR {
	pos := make([]int, len(m.vals))
	t := m.transpose(pos)
	c := *m
	c.tr = &transposition{rowPtr: t.rowPtr, colIdx: t.colIdx, pos: pos}
	return &c
}

// RowRange calls fn(col, val) for every stored entry of row i.
func (m *CSR) RowRange(i int, fn func(col int, val float64)) {
	for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
		fn(m.colIdx[k], m.vals[k])
	}
}

// VecMul computes y = xᵀ·m.
func (m *CSR) VecMul(x []float64) ([]float64, error) {
	y := make([]float64, m.cols)
	if err := m.VecMulTo(y, x); err != nil {
		return nil, err
	}
	return y, nil
}

// VecMulTo computes y = xᵀ·m into y, which must not share memory with x.
func (m *CSR) VecMulTo(y, x []float64) error {
	if len(x) != m.rows || len(y) != m.cols {
		return fmt.Errorf("csr vecmul: %dx%d vs x len %d, y len %d: %w", m.rows, m.cols, len(x), len(y), ErrDimensionMismatch)
	}
	clear(y)
	for i := 0; i < m.rows; i++ {
		xi := x[i]
		if xi == 0 { //numvet:allow float-eq skipping exact zeros is a sparsity optimization
			continue
		}
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			y[m.colIdx[k]] += xi * m.vals[k]
		}
	}
	return nil
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

// Transpose returns mᵀ in CSR form. A matrix with a kept transpose (see
// WithTranspose) only places its values.
func (m *CSR) Transpose() *CSR {
	if tr := m.tr; tr != nil {
		vals := make([]float64, len(m.vals))
		for k, v := range m.vals {
			vals[tr.pos[k]] = v
		}
		return &CSR{rows: m.cols, cols: m.rows, rowPtr: tr.rowPtr, colIdx: tr.colIdx, vals: vals}
	}
	return m.transpose(nil)
}

// transpose lays out mᵀ and places its values; pos, when not nil,
// receives the position in mᵀ of each entry of m.
func (m *CSR) transpose(pos []int) *CSR {
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
			p := next[c]
			t.colIdx[p] = i
			t.vals[p] = m.vals[k]
			if pos != nil {
				pos[k] = p
			}
			next[c]++
		}
	}
	return t
}
