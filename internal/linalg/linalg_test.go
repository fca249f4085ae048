package linalg

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// denseFromRows builds a matrix from row slices, copying the data.
func denseFromRows(rows [][]float64) (*Dense, error) {
	if len(rows) == 0 {
		return NewDense(0, 0), nil
	}
	cols := len(rows[0])
	m := NewDense(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("row %d has %d cols, want %d: %w", i, len(r), cols, ErrDimensionMismatch)
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestDotAndNorms(t *testing.T) {
	tests := []struct {
		name    string
		a, b    []float64
		wantDot float64
		wantErr bool
	}{
		{name: "basic", a: []float64{1, 2, 3}, b: []float64{4, 5, 6}, wantDot: 32},
		{name: "empty", a: nil, b: nil, wantDot: 0},
		{name: "mismatch", a: []float64{1}, b: []float64{1, 2}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Dot(tt.a, tt.b)
			if tt.wantErr {
				if err == nil {
					t.Fatal("want error, got nil")
				}
				if !errors.Is(err, ErrDimensionMismatch) {
					t.Fatalf("want ErrDimensionMismatch, got %v", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.wantDot {
				t.Fatalf("dot = %g, want %g", got, tt.wantDot)
			}
		})
	}
	v := []float64{3, -4}
	if Norm1(v) != 7 {
		t.Errorf("Norm1 = %g, want 7", Norm1(v))
	}
	if NormInf(v) != 4 {
		t.Errorf("NormInf = %g, want 4", NormInf(v))
	}
}

func TestNormalize1(t *testing.T) {
	v := []float64{2, 2, 4}
	if err := Normalize1(v); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(Sum(v), 1, 1e-15) {
		t.Fatalf("sum = %g, want 1", Sum(v))
	}
	if err := Normalize1([]float64{0, 0}); err == nil {
		t.Fatal("want error for zero vector")
	}
}

func TestDenseMulVec(t *testing.T) {
	m, err := denseFromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	y, err := m.MulVec([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != 3 || y[1] != 7 {
		t.Fatalf("MulVec = %v, want [3 7]", y)
	}
	x, err := m.VecMul([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 4 || x[1] != 6 {
		t.Fatalf("VecMul = %v, want [4 6]", x)
	}
	if _, err := m.MulVec([]float64{1}); err == nil {
		t.Fatal("want dimension error")
	}
}

func TestDenseMul(t *testing.T) {
	a, _ := denseFromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := denseFromRows([][]float64{{5, 6}, {7, 8}})
	c, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("c[%d][%d] = %g, want %g", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestLUSolve(t *testing.T) {
	a, _ := denseFromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	x, err := LUSolve(a, []float64{8, -11, -3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !almostEqual(x[i], want[i], 1e-12) {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestLUSolveSingular(t *testing.T) {
	a, _ := denseFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := LUSolve(a, []float64{1, 2}); err == nil {
		t.Fatal("want singularity error")
	}
}

func TestLUSolveRandomProperty(t *testing.T) {
	// Property: for diagonally dominant random A and random b,
	// A·LUSolve(A,b) ≈ b.
	f := func(seed int64) bool {
		rng := newTestRand(seed)
		n := 2 + int(abs64(seed))%6
		a := NewDense(n, n)
		for i := 0; i < n; i++ {
			var rowSum float64
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				v := rng.Float64()*2 - 1
				a.Set(i, j, v)
				rowSum += math.Abs(v)
			}
			a.Set(i, i, rowSum+1) // strict diagonal dominance
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.Float64()*10 - 5
		}
		x, err := LUSolve(a, b)
		if err != nil {
			return false
		}
		ax, err := a.MulVec(x)
		if err != nil {
			return false
		}
		d, _ := MaxAbsDiff(ax, b)
		return d < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderBuild(t *testing.T) {
	c := NewBuilder(3, 3)
	mustAdd := func(i, j int, v float64) {
		t.Helper()
		if err := c.Add(i, j, v); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(0, 1, 2)
	mustAdd(2, 0, 5)
	mustAdd(0, 1, 3) // duplicate, summed
	mustAdd(1, 1, -7)
	m := c.Build()
	if m.NNZ() != 3 {
		t.Fatalf("nnz = %d, want 3", m.NNZ())
	}
	if m.At(0, 1) != 5 {
		t.Fatalf("At(0,1) = %g, want 5", m.At(0, 1))
	}
	if m.At(1, 1) != -7 {
		t.Fatalf("At(1,1) = %g, want -7", m.At(1, 1))
	}
	if m.At(2, 2) != 0 {
		t.Fatalf("At(2,2) = %g, want 0", m.At(2, 2))
	}
	if err := c.Add(5, 0, 1); err == nil {
		t.Fatal("want range error")
	}
}

func TestCSRMulAndTranspose(t *testing.T) {
	c := NewBuilder(2, 3)
	_ = c.Add(0, 0, 1)
	_ = c.Add(0, 2, 2)
	_ = c.Add(1, 1, 3)
	m := c.Build()
	x, err := m.VecMul([]float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 1 || x[1] != 6 || x[2] != 2 {
		t.Fatalf("VecMul = %v", x)
	}
	tr := m.Transpose()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("transpose shape %dx%d", tr.Rows(), tr.Cols())
	}
	if tr.At(2, 0) != 2 || tr.At(1, 1) != 3 {
		t.Fatal("transpose values wrong")
	}
}

func TestCSRTransposeProperty(t *testing.T) {
	// Property: (Mᵀ)ᵀ = M for random sparse matrices.
	f := func(seed int64) bool {
		rng := newTestRand(seed)
		rows := 1 + int(abs64(seed))%8
		cols := 1 + int(abs64(seed)>>3)%8
		c := NewBuilder(rows, cols)
		for k := 0; k < rows*cols/2+1; k++ {
			_ = c.Add(rng.Intn(rows), rng.Intn(cols), rng.Float64())
		}
		m := c.Build()
		tt := m.Transpose().Transpose()
		if tt.Rows() != m.Rows() || tt.Cols() != m.Cols() || tt.NNZ() != m.NNZ() {
			return false
		}
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if m.At(i, j) != tt.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// twoStateGenerator returns the generator of the classic up/down CTMC with
// failure rate lam and repair rate mu. Its stationary vector is
// (mu, lam)/(lam+mu).
func twoStateGenerator(lam, mu float64) *Dense {
	m, _ := denseFromRows([][]float64{
		{-lam, lam},
		{mu, -mu},
	})
	return m
}

func TestGTHTwoState(t *testing.T) {
	tests := []struct {
		name    string
		lam, mu float64
	}{
		{name: "balanced", lam: 1, mu: 1},
		{name: "stiff", lam: 1e-6, mu: 1},
		{name: "very stiff", lam: 1e-9, mu: 10},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			pi, err := GTH(twoStateGenerator(tt.lam, tt.mu))
			if err != nil {
				t.Fatal(err)
			}
			wantUp := tt.mu / (tt.lam + tt.mu)
			if !almostEqual(pi[0], wantUp, 1e-14) {
				t.Fatalf("pi[0] = %.16g, want %.16g", pi[0], wantUp)
			}
		})
	}
}

func TestGTHBirthDeath(t *testing.T) {
	// M/M/1/3 queue: arrival 2, service 3. pi_k ∝ (2/3)^k.
	lam, mu := 2.0, 3.0
	q := NewDense(4, 4)
	for k := 0; k < 3; k++ {
		q.Set(k, k+1, lam)
		q.Set(k+1, k, mu)
	}
	pi, err := GTH(q)
	if err != nil {
		t.Fatal(err)
	}
	rho := lam / mu
	var norm float64
	for k := 0; k < 4; k++ {
		norm += math.Pow(rho, float64(k))
	}
	for k := 0; k < 4; k++ {
		want := math.Pow(rho, float64(k)) / norm
		if !almostEqual(pi[k], want, 1e-13) {
			t.Fatalf("pi[%d] = %g, want %g", k, pi[k], want)
		}
	}
}

func TestGTHErrors(t *testing.T) {
	if _, err := GTH(NewDense(0, 0)); err == nil {
		t.Fatal("want error for empty generator")
	}
	bad := NewDense(2, 2)
	bad.Set(0, 1, -1)
	if _, err := GTH(bad); err == nil {
		t.Fatal("want error for negative rate")
	}
	// Reducible: state 1 unreachable downward.
	red := NewDense(2, 2)
	red.Set(0, 1, 1)
	if _, err := GTH(red); err == nil {
		t.Fatal("want error for reducible generator")
	}
}

func TestSORMatchesGTH(t *testing.T) {
	// Random irreducible 6-state generator.
	rng := newTestRand(42)
	n := 6
	b := NewBuilder(n, n)
	dense := NewDense(n, n)
	for i := 0; i < n; i++ {
		var out float64
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := 0.1 + rng.Float64()*5
			_ = b.Add(i, j, v)
			dense.Set(i, j, v)
			out += v
		}
		_ = b.Add(i, i, -out)
		dense.Set(i, i, -out)
	}
	want, err := GTH(dense)
	if err != nil {
		t.Fatal(err)
	}
	got, iters, err := SORSteadyState(b.Build(), SOROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if iters <= 0 {
		t.Fatal("no iterations recorded")
	}
	d, _ := MaxAbsDiff(got, want)
	if d > 1e-9 {
		t.Fatalf("SOR vs GTH diff %g", d)
	}
}

func TestSORStiffTwoState(t *testing.T) {
	lam, mu := 1e-5, 1.0
	b := NewBuilder(2, 2)
	_ = b.Add(0, 1, lam)
	_ = b.Add(0, 0, -lam)
	_ = b.Add(1, 0, mu)
	_ = b.Add(1, 1, -mu)
	pi, _, err := SORSteadyState(b.Build(), SOROptions{Tol: 1e-15})
	if err != nil {
		t.Fatal(err)
	}
	want := mu / (lam + mu)
	if !almostEqual(pi[0], want, 1e-10) {
		t.Fatalf("pi[0] = %.14g, want %.14g", pi[0], want)
	}
}

func TestSORBadOmega(t *testing.T) {
	b := NewBuilder(2, 2)
	_ = b.Add(0, 1, 1)
	_ = b.Add(1, 0, 1)
	if _, _, err := SORSteadyState(b.Build(), SOROptions{Omega: 2.5}); err == nil {
		t.Fatal("want omega range error")
	}
}

func TestPowerIteration(t *testing.T) {
	// Two-state DTMC with P = [[0.9,0.1],[0.5,0.5]]; stationary = (5/6, 1/6).
	b := NewBuilder(2, 2)
	_ = b.Add(0, 0, 0.9)
	_ = b.Add(0, 1, 0.1)
	_ = b.Add(1, 0, 0.5)
	_ = b.Add(1, 1, 0.5)
	pi, _, err := PowerIterationOpts(b.Build(), PowerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(pi[0], 5.0/6, 1e-10) || !almostEqual(pi[1], 1.0/6, 1e-10) {
		t.Fatalf("pi = %v, want [5/6 1/6]", pi)
	}
}

func TestSimpson(t *testing.T) {
	got := Simpson(func(x float64) float64 { return x * x }, 0, 1, 100)
	if !almostEqual(got, 1.0/3, 1e-9) {
		t.Fatalf("∫x² = %g, want 1/3", got)
	}
}

func TestAdaptiveSimpson(t *testing.T) {
	got := AdaptiveSimpson(math.Sin, 0, math.Pi, 1e-10)
	if !almostEqual(got, 2, 1e-8) {
		t.Fatalf("∫sin = %g, want 2", got)
	}
}

func TestIntegrateToInf(t *testing.T) {
	// ∫₀^∞ e^{-t} dt = 1.
	got := IntegrateToInf(func(t float64) float64 { return math.Exp(-t) })
	if !almostEqual(got, 1, 1e-7) {
		t.Fatalf("∫e^-t = %g, want 1", got)
	}
	// MTTF of 2-of-3 exponential system with rate 1: 5/6.
	r23 := func(t float64) float64 {
		r := math.Exp(-t)
		return 3*r*r - 2*r*r*r
	}
	got = IntegrateToInf(r23)
	if !almostEqual(got, 5.0/6, 1e-6) {
		t.Fatalf("MTTF 2oo3 = %g, want 5/6", got)
	}
}

// --- minimal deterministic PRNG for tests (avoids math/rand global state) ---

type testRand struct{ s uint64 }

func newTestRand(seed int64) *testRand {
	u := uint64(seed)
	if u == 0 {
		u = 0x9e3779b97f4a7c15
	}
	return &testRand{s: u}
}

func (r *testRand) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *testRand) Float64() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

func (r *testRand) Intn(n int) int {
	return int(r.next() % uint64(n))
}

func abs64(x int64) int64 {
	if x < 0 {
		if x == math.MinInt64 {
			return math.MaxInt64
		}
		return -x
	}
	return x
}

func TestExpmEdgeCases(t *testing.T) {
	// e^0 = I.
	z := NewDense(3, 3)
	e, err := Expm(z)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEqual(e.At(i, j), want, 1e-15) {
				t.Fatalf("e^0[%d][%d] = %g", i, j, e.At(i, j))
			}
		}
	}
	// Nilpotent N = [[0,1],[0,0]]: e^N = I + N exactly.
	n := NewDense(2, 2)
	n.Set(0, 1, 1)
	en, err := Expm(n)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(en.At(0, 0), 1, 1e-14) || !almostEqual(en.At(0, 1), 1, 1e-14) ||
		!almostEqual(en.At(1, 0), 0, 1e-14) || !almostEqual(en.At(1, 1), 1, 1e-14) {
		t.Errorf("e^N = %v", en)
	}
	// Diagonal: e^{diag(a,b)} = diag(e^a, e^b).
	d := NewDense(2, 2)
	d.Set(0, 0, -1)
	d.Set(1, 1, 2)
	ed, err := Expm(d)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(ed.At(0, 0), math.Exp(-1), 1e-12) || !almostEqual(ed.At(1, 1), math.Exp(2), 1e-12) {
		t.Errorf("e^diag = %v", ed)
	}
	// Non-square rejected.
	if _, err := Expm(NewDense(2, 3)); err == nil {
		t.Error("non-square accepted")
	}
}
