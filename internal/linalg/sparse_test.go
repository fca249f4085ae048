package linalg

import (
	"math"
	"slices"
	"sort"
	"testing"
)

// toCSRSortSlice is COO.ToCSR with the entries sorted by sort.Slice. Both
// sorts run the same pdqsort, so duplicate (row, col) entries must come
// out in the same order and sum to the same bits; this is the oracle
// ToCSR is checked against.
func toCSRSortSlice(c *COO) *CSR {
	entries := slices.Clone(c.entries)
	sort.Slice(entries, func(a, b int) bool {
		ea, eb := entries[a], entries[b]
		if ea.Row != eb.Row {
			return ea.Row < eb.Row
		}
		return ea.Col < eb.Col
	})
	m := &CSR{rows: c.rows, cols: c.cols, rowPtr: make([]int, c.rows+1)}
	for k := 0; k < len(entries); {
		e := entries[k]
		v := e.Val
		k++
		for k < len(entries) && entries[k].Row == e.Row && entries[k].Col == e.Col {
			v += entries[k].Val
			k++
		}
		if v != 0 {
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

// TestToCSRDuplicatesMatchSortSlice assembles scrambled COOs whose
// (row, col) entries repeat many times, with values of mixed magnitude
// so that summing the duplicates in another order changes the bits, and
// demands the CSR the sort.Slice version builds.
func TestToCSRDuplicatesMatchSortSlice(t *testing.T) {
	rng := newTestRand(19)
	for trial := 0; trial < 2000; trial++ {
		rows, cols := 1+rng.Intn(12), 1+rng.Intn(12)
		coo := NewCOO(rows, cols)
		n := rng.Intn(600)
		for k := 0; k < n; k++ {
			i, j := rng.Intn(rows), rng.Intn(cols)
			switch trial % 4 {
			case 1: // presorted
				i, j = k*rows/max(n, 1), k%cols
			case 2: // reverse sorted
				i, j = (n-1-k)*rows/max(n, 1), (n-1-k)%cols
			}
			v := (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(33)-16))
			if err := coo.Add(i, j, v); err != nil {
				t.Fatal(err)
			}
		}
		want := toCSRSortSlice(coo)
		got := coo.ToCSR()
		if !slices.Equal(got.rowPtr, want.rowPtr) || !slices.Equal(got.colIdx, want.colIdx) {
			t.Fatalf("trial %d: pattern %v %v, sort.Slice gives %v %v", trial, got.rowPtr, got.colIdx, want.rowPtr, want.colIdx)
		}
		for k := range want.vals {
			if math.Float64bits(got.vals[k]) != math.Float64bits(want.vals[k]) {
				t.Fatalf("trial %d: value %d = %v, sort.Slice gives %v", trial, k, got.vals[k], want.vals[k])
			}
		}
	}
}
