package markov

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/linalg"
)

// This file keeps the generator assembly and uniformization that ran
// before the chain's index arrays were laid out by a counting sort, as
// the oracle the new assembly is checked against bit for bit: triplets
// collected per transition and diagonal, sorted by slices.SortFunc
// (pdqsort) and merged, and P = I + Q/q assembled the same way.

// triplet is one (row, col, value) entry of the reference assembly.
type triplet struct {
	i, j int
	v    float64
}

// refCSR is a matrix the reference assembled, as plain arrays.
type refCSR struct {
	n              int
	rowPtr, colIdx []int
	vals           []float64
}

// refAssemble sorts the triplets by (row, col) with pdqsort and sums
// each position's run in sorted order, dropping exact zeros, as
// COO.ToCSR did.
func refAssemble(n int, es []triplet) refCSR {
	slices.SortFunc(es, func(a, b triplet) int {
		if a.i != b.i {
			return cmp.Compare(a.i, b.i)
		}
		return cmp.Compare(a.j, b.j)
	})
	m := refCSR{n: n, rowPtr: make([]int, n+1)}
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
	for i := 0; i < n; i++ {
		m.rowPtr[i+1] += m.rowPtr[i]
	}
	return m
}

// refGenerator is CTMC.Generator as it was: every transition and every
// nonzero diagonal as a triplet, then refAssemble.
func refGenerator(c *CTMC) refCSR {
	n := len(c.names)
	var es []triplet
	diag := make([]float64, n)
	for k := range c.from {
		t := c.edge(k)
		es = append(es, triplet{t.from, t.to, t.rate})
		diag[t.from] += t.rate
	}
	for i, d := range diag {
		if d > 0 {
			es = append(es, triplet{i, i, -d})
		}
	}
	return refAssemble(n, es)
}

// refUniformized is uniformized as it was, on a reference generator.
func refUniformized(q refCSR) (refCSR, float64) {
	var maxExit float64
	for i := 0; i < q.n; i++ {
		for k := q.rowPtr[i]; k < q.rowPtr[i+1]; k++ {
			if q.colIdx[k] == i && -q.vals[k] > maxExit {
				maxExit = -q.vals[k]
			}
		}
	}
	if maxExit == 0 {
		return refCSR{}, 0
	}
	rate := maxExit * 1.02
	var es []triplet
	for i := 0; i < q.n; i++ {
		var diag float64
		for k := q.rowPtr[i]; k < q.rowPtr[i+1]; k++ {
			if j := q.colIdx[k]; j == i {
				diag = q.vals[k]
			} else if v := q.vals[k] / rate; v != 0 {
				es = append(es, triplet{i, j, v})
			}
		}
		es = append(es, triplet{i, i, 1 + diag/rate})
	}
	return refAssemble(q.n, es), rate
}

// csr turns a reference matrix into a linalg.CSR. Its positions are
// distinct, so the builder stores each value as given.
func (m refCSR) csr() *linalg.CSR {
	b := linalg.NewBuilder(m.n, m.n)
	for i := 0; i < m.n; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			_ = b.Add(i, m.colIdx[k], m.vals[k])
		}
	}
	return b.Build()
}

// refTransient is Transient's walk as it was: a fresh vector per step
// from VecMul, on the reference P.
func refTransient(p *linalg.CSR, rate, t float64, p0 []float64) ([]float64, error) {
	v := slices.Clone(p0)
	if p == nil {
		return v, nil
	}
	weights, left, err := poissonWeights(rate*t, 1e-12)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(v))
	prev := v
	for k := 0; k <= left+len(weights)-1; k++ {
		if k > 0 {
			if prev, err = p.VecMul(prev); err != nil {
				return nil, err
			}
		}
		if k >= left {
			if err := linalg.AXPY(weights[k-left], prev, out); err != nil {
				return nil, err
			}
		}
	}
	for i, x := range out {
		if x < 0 {
			out[i] = 0
		}
	}
	return out, linalg.Normalize1(out)
}

// sameMatrix reports how m differs from want, bit for bit, or "".
func sameMatrix(m *linalg.CSR, want refCSR) string {
	if m.Rows() != want.n || m.NNZ() != len(want.vals) {
		return fmt.Sprintf("%dx%d with %d entries, want %d states and %d entries", m.Rows(), m.Cols(), m.NNZ(), want.n, len(want.vals))
	}
	for i := 0; i < want.n; i++ {
		cols, vals := m.Row(i)
		lo, hi := want.rowPtr[i], want.rowPtr[i+1]
		if !slices.Equal(cols, want.colIdx[lo:hi]) {
			return fmt.Sprintf("row %d columns %v, want %v", i, cols, want.colIdx[lo:hi])
		}
		for k, v := range vals {
			if math.Float64bits(v) != math.Float64bits(want.vals[lo+k]) {
				return fmt.Sprintf("(%d,%d) = %v, want %v", i, cols[k], v, want.vals[lo+k])
			}
		}
	}
	return ""
}

// sameBits reports the first element where a and b differ in bits, or "".
func sameBits(a, b []float64) string {
	if len(a) != len(b) {
		return fmt.Sprintf("lengths %d and %d", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Sprintf("element %d: %v vs %v", i, a[i], b[i])
		}
	}
	return ""
}

// randomChain builds a chain by AddRate over up to eight states, one of
// them possibly named "". Rates span six decades. Some pairs repeat, so
// their generator entry is a sum; some states only receive transitions,
// so they are absorbing or appear only as targets.
func randomChain(rng *rand.Rand) *CTMC {
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	if rng.Intn(4) == 0 {
		names[rng.Intn(len(names))] = ""
	}
	n := 1 + rng.Intn(len(names))
	c := NewCTMC()
	type pair struct{ from, to string }
	var added []pair
	for k := rng.Intn(3*n + 1); k > 0; k-- {
		p := pair{names[rng.Intn(n)], names[rng.Intn(n)]}
		if len(added) > 0 && rng.Intn(4) == 0 {
			p = added[rng.Intn(len(added))] // a duplicated pair
		}
		if p.from == p.to {
			continue
		}
		if err := c.AddRate(p.from, p.to, math.Pow(10, 6*rng.Float64()-3)); err != nil {
			panic(err)
		}
		added = append(added, p)
	}
	return c
}

// checkChainMatchesReference compares c's generator, its pattern's fill,
// its uniformized matrix and its transient solution with the reference
// assembly's, bit for bit. A duplicated pair's entry must equal the sum
// of its rates in transition order instead of the reference's sorted-
// order sum; the downstream comparisons then use that entry too.
func checkChainMatchesReference(c *CTMC, t float64) error {
	if len(c.names) == 0 {
		if _, err := c.Generator(); err != ErrEmptyChain {
			return fmt.Errorf("empty chain: generator error %v", err)
		}
		return nil
	}
	q, err := c.Generator()
	if err != nil {
		return err
	}
	want := refGenerator(c)
	// Entries of duplicated pairs: the document-order sum.
	docSum := map[[2]int]float64{}
	count := map[[2]int]int{}
	for k := range c.from {
		key := [2]int{c.from[k], c.to[k]}
		docSum[key] += c.rate[k]
		count[key]++
	}
	for i := 0; i < want.n; i++ {
		for k := want.rowPtr[i]; k < want.rowPtr[i+1]; k++ {
			if key := [2]int{i, want.colIdx[k]}; count[key] > 1 {
				want.vals[k] = docSum[key]
			}
		}
	}
	if d := sameMatrix(q, want); d != "" {
		return fmt.Errorf("generator: %s", d)
	}
	p, err := NewPattern(c)
	if err != nil {
		return err
	}
	rated, err := c.WithRates(c.rate)
	if err != nil {
		return err
	}
	filled, err := p.Fill(rated)
	if err != nil {
		return err
	}
	if d := sameMatrix(filled, want); d != "" {
		return fmt.Errorf("pattern fill: %s", d)
	}
	if d := sameMatrix(filled.Transpose().Transpose(), want); d != "" {
		return fmt.Errorf("kept transpose: %s", d)
	}
	unif, rate, err := uniformized(q)
	if err != nil {
		return err
	}
	wantUnif, wantRate := refUniformized(want)
	if math.Float64bits(rate) != math.Float64bits(wantRate) {
		return fmt.Errorf("uniformization rate %v, want %v", rate, wantRate)
	}
	var wantP *linalg.CSR
	if wantRate != 0 {
		if d := sameMatrix(unif, wantUnif); d != "" {
			return fmt.Errorf("uniformized: %s", d)
		}
		wantP = wantUnif.csr()
	}
	p0 := make([]float64, len(c.names))
	p0[0] = 1
	pt, err := c.Transient(t, p0, TransientOptions{})
	if err != nil {
		return err
	}
	wantPt, err := refTransient(wantP, wantRate, t, p0)
	if err != nil {
		return err
	}
	if d := sameBits(pt, wantPt); d != "" {
		return fmt.Errorf("transient at %g: %s", t, d)
	}
	return nil
}

// TestChainMatchesReference runs the reference comparison on 10,000
// seeded random chains, and fails if the shapes it is meant to cover
// (duplicated pairs, absorbing states, a state named "") turn up too
// rarely to count.
func TestChainMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	var dups, absorbing, empty int
	for i := 0; i < 10000; i++ {
		c := randomChain(rng)
		if err := checkChainMatchesReference(c, 0.1+5*rng.Float64()); err != nil {
			t.Fatalf("chain %d (%v): %v", i, c.names, err)
		}
		seen := map[[2]int]bool{}
		out := make([]bool, len(c.names))
		for k := range c.from {
			key := [2]int{c.from[k], c.to[k]}
			if seen[key] {
				dups++
			}
			seen[key] = true
			out[c.from[k]] = true
		}
		if slices.Contains(out, false) {
			absorbing++
		}
		if _, ok := c.index[""]; ok {
			empty++
		}
	}
	for shape, n := range map[string]int{"duplicated pair": dups, "absorbing state": absorbing, `state ""`: empty} {
		if n < 100 {
			t.Errorf("only %d chains with a %s", n, shape)
		}
	}
}

// FuzzChainMatchesReference runs the reference comparison on chains
// drawn from the fuzzer's seed and time.
func FuzzChainMatchesReference(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 24} {
		f.Add(seed, 1.5)
	}
	f.Fuzz(func(t *testing.T, seed int64, tm float64) {
		if !(tm > 0 && tm < 100) {
			return
		}
		c := randomChain(rand.New(rand.NewSource(seed)))
		if err := checkChainMatchesReference(c, tm); err != nil {
			t.Fatal(err)
		}
	})
}
