package linalg

import (
	"math"
	"slices"
	"sort"
	"testing"
)

// entry is one (row, col, value) addition to a Builder.
type entry struct {
	i, j int
	v    float64
}

// buildStableSort is what Builder.Build must return: the entries stably
// sorted by (row, col) with sort.SliceStable, each position summed in
// the order its entries were added, exact zero sums dropped.
func buildStableSort(rows, cols int, es []entry) *CSR {
	es = slices.Clone(es)
	sort.SliceStable(es, func(a, b int) bool {
		if es[a].i != es[b].i {
			return es[a].i < es[b].i
		}
		return es[a].j < es[b].j
	})
	m := &CSR{rows: rows, cols: cols, rowPtr: make([]int, rows+1)}
	for k := 0; k < len(es); {
		e := es[k]
		v := e.v
		k++
		for k < len(es) && es[k].i == e.i && es[k].j == e.j {
			v += es[k].v
			k++
		}
		if v != 0 {
			m.colIdx = append(m.colIdx, e.j)
			m.vals = append(m.vals, v)
			m.rowPtr[e.i+1]++
		}
	}
	for i := 0; i < rows; i++ {
		m.rowPtr[i+1] += m.rowPtr[i]
	}
	return m
}

// scrambledEntries draws n entries over a rows×cols matrix that repeat
// positions many times, with values of mixed magnitude so that summing a
// position's entries in another order changes the bits. Every fourth
// draw adds an entry and its negation, so some positions sum to exactly
// zero.
func scrambledEntries(rng interface {
	Intn(int) int
	Float64() float64
}, rows, cols, n, shape int) []entry {
	es := make([]entry, 0, n)
	for k := 0; k < n; k++ {
		i, j := rng.Intn(rows), rng.Intn(cols)
		switch shape % 4 {
		case 1: // presorted
			i, j = k*rows/max(n, 1), k%cols
		case 2: // reverse sorted
			i, j = (n-1-k)*rows/max(n, 1), (n-1-k)%cols
		}
		v := (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(33)-16))
		es = append(es, entry{i, j, v})
		if shape%4 == 3 && k%4 == 0 {
			es = append(es, entry{i, j, -v})
		}
	}
	return es
}

// TestBuilderSumsDuplicatesInAddOrder assembles scrambled entries whose
// positions repeat many times and demands, bit for bit, the matrix a
// stable sort and an in-order sum give: the counting sort keeps the
// order in which each position's entries were added.
func TestBuilderSumsDuplicatesInAddOrder(t *testing.T) {
	rng := newTestRand(19)
	for trial := 0; trial < 2000; trial++ {
		rows, cols := 1+rng.Intn(12), 1+rng.Intn(12)
		es := scrambledEntries(rng, rows, cols, rng.Intn(600), trial)
		b := NewBuilder(rows, cols)
		for _, e := range es {
			if err := b.Add(e.i, e.j, e.v); err != nil {
				t.Fatal(err)
			}
		}
		want := buildStableSort(rows, cols, es)
		got := b.Build()
		if got.rows != rows || got.cols != cols {
			t.Fatalf("trial %d: %dx%d, want %dx%d", trial, got.rows, got.cols, rows, cols)
		}
		if !slices.Equal(got.rowPtr, want.rowPtr) || !slices.Equal(got.colIdx, want.colIdx) {
			t.Fatalf("trial %d: pattern %v %v, stable sort gives %v %v", trial, got.rowPtr, got.colIdx, want.rowPtr, want.colIdx)
		}
		for k := range want.vals {
			if math.Float64bits(got.vals[k]) != math.Float64bits(want.vals[k]) {
				t.Fatalf("trial %d: value %d = %v, stable sort gives %v", trial, k, got.vals[k], want.vals[k])
			}
		}
	}
}

// TestAssembleSlots checks Assemble's layout directly: rows in order,
// columns strictly ascending within a row, every entry's slot at its own
// position, and with diag one diagonal slot for each row with entries.
func TestAssembleSlots(t *testing.T) {
	rng := newTestRand(23)
	for trial := 0; trial < 2000; trial++ {
		rows := 1 + rng.Intn(10)
		cols := 1 + rng.Intn(10)
		diag := trial%2 == 1
		if diag {
			cols = rows
		}
		n := rng.Intn(60)
		row, col := make([]int, n), make([]int, n)
		want := map[[2]int]bool{}
		hasEntry := make([]bool, rows)
		for k := range row {
			row[k], col[k] = rng.Intn(rows), rng.Intn(cols)
			want[[2]int{row[k], col[k]}] = true
			hasEntry[row[k]] = true
		}
		if diag {
			for i, ok := range hasEntry {
				if ok {
					want[[2]int{i, i}] = true
				}
			}
		}
		m, slots, err := Assemble(rows, cols, row, col, diag)
		if err != nil {
			t.Fatal(err)
		}
		if m.NNZ() != len(want) || len(m.vals) != len(m.colIdx) {
			t.Fatalf("trial %d: %d stored, %d values, want %d positions", trial, len(m.colIdx), len(m.vals), len(want))
		}
		at := make([][2]int, m.NNZ())
		for i := 0; i < rows; i++ {
			cs, _ := m.Row(i)
			for k, j := range cs {
				if k > 0 && cs[k-1] >= j {
					t.Fatalf("trial %d: row %d columns %v not strictly ascending", trial, i, cs)
				}
				at[m.rowPtr[i]+k] = [2]int{i, j}
			}
		}
		wantSlots := n
		if diag {
			wantSlots += rows
		}
		if len(slots) != wantSlots {
			t.Fatalf("trial %d: %d slots, want %d", trial, len(slots), wantSlots)
		}
		for k := range row {
			if at[slots[k]] != [2]int{row[k], col[k]} {
				t.Fatalf("trial %d: entry %d (%d,%d) in slot %d at %v", trial, k, row[k], col[k], slots[k], at[slots[k]])
			}
		}
		if diag {
			for i, ok := range hasEntry {
				s := slots[n+i]
				if !ok && s != -1 || ok && (s < 0 || at[s] != [2]int{i, i}) {
					t.Fatalf("trial %d: row %d (entries %v) diagonal slot %d", trial, i, ok, s)
				}
			}
		}
	}
	if _, _, err := Assemble(2, 2, []int{0}, []int{2}, false); err == nil {
		t.Error("out-of-range column assembled")
	}
	if _, _, err := Assemble(2, 3, nil, nil, true); err == nil {
		t.Error("diagonal of a non-square matrix assembled")
	}
}

// TestWithDiagonalAndKeptTranspose: WithDiagonal stores a zero on each
// missing diagonal and changes nothing else, and a kept transpose
// transposes matrices made WithValues exactly as transpose lays them out,
// overwriting whatever the reused value array held.
func TestWithDiagonalAndKeptTranspose(t *testing.T) {
	rng := newTestRand(29)
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(9)
		b := NewBuilder(n, n)
		for k := rng.Intn(3 * n); k > 0; k-- {
			_ = b.Add(rng.Intn(n), rng.Intn(n), rng.Float64()+0.1)
		}
		m := b.Build()
		d, err := m.WithDiagonal()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if d.Slot(i, i) < 0 {
				t.Fatalf("trial %d: row %d has no diagonal", trial, i)
			}
			for j := 0; j < n; j++ {
				if math.Float64bits(d.At(i, j)) != math.Float64bits(m.At(i, j)) {
					t.Fatalf("trial %d: (%d,%d) = %v, want %v", trial, i, j, d.At(i, j), m.At(i, j))
				}
			}
		}
		kept := m.WithTranspose()
		vals := make([]float64, m.NNZ())
		for k := range vals {
			vals[k] = rng.Float64()
		}
		w, err := kept.WithValues(vals)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := m.WithValues(slices.Clone(vals))
		if err != nil {
			t.Fatal(err)
		}
		got := &CSR{vals: make([]float64, m.NNZ(), m.NNZ()+1)}
		for k := range got.vals {
			got.vals[k] = math.NaN() // transposeInto overwrites whatever vals holds
		}
		w.transposeInto(got)
		want := plain.transpose(nil)
		if !slices.Equal(got.rowPtr, want.rowPtr) || !slices.Equal(got.colIdx, want.colIdx) || !slices.Equal(got.vals, want.vals) {
			t.Fatalf("trial %d: kept transpose %v %v %v, want %v %v %v", trial,
				got.rowPtr, got.colIdx, got.vals, want.rowPtr, want.colIdx, want.vals)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()
		}
		y1, err := w.VecMul(x)
		if err != nil {
			t.Fatal(err)
		}
		y2 := make([]float64, n)
		for i := range y2 {
			y2[i] = math.NaN() // VecMulTo overwrites whatever y holds
		}
		if err := w.VecMulTo(y2, x); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(y1, y2) {
			t.Fatalf("trial %d: VecMulTo %v, VecMul %v", trial, y2, y1)
		}
	}
}
