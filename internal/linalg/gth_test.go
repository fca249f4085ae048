package linalg

import (
	"fmt"
	"math"
	"testing"
)

// gthReference is the GTH state reduction written the direct way: it
// copies the off-diagonal rates, and its inner loop skips the diagonal
// term. GTH and GTHCSR must agree with it bit for bit.
func gthReference(q *Dense) ([]float64, error) {
	n := q.Rows()
	if q.Cols() != n {
		return nil, fmt.Errorf("gth: matrix %dx%d not square: %w", q.Rows(), q.Cols(), ErrDimensionMismatch)
	}
	if n == 0 {
		return nil, fmt.Errorf("gth: empty generator")
	}
	if n == 1 {
		return []float64{1}, nil
	}
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := q.At(i, j)
			if v < 0 {
				return nil, fmt.Errorf("gth: negative rate %g at (%d,%d)", v, i, j)
			}
			a.Set(i, j, v)
		}
	}
	for k := n - 1; k >= 1; k-- {
		var s float64
		for j := 0; j < k; j++ {
			s += a.At(k, j)
		}
		if s == 0 {
			return nil, fmt.Errorf("gth: state %d has no transitions to lower-indexed states; generator reducible", k)
		}
		for i := 0; i < k; i++ {
			aik := a.At(i, k)
			if aik == 0 {
				continue
			}
			f := aik / s
			row, krow := a.Row(i), a.Row(k)
			for j := 0; j < k; j++ {
				if j == i {
					continue
				}
				row[j] += f * krow[j]
			}
		}
	}
	pi := make([]float64, n)
	pi[0] = 1
	for k := 1; k < n; k++ {
		var s float64
		for j := 0; j < k; j++ {
			s += a.At(k, j)
		}
		var num float64
		for i := 0; i < k; i++ {
			num += pi[i] * a.At(i, k)
		}
		pi[k] = num / s
	}
	if err := Normalize1(pi); err != nil {
		return nil, fmt.Errorf("gth: %w", err)
	}
	return pi, nil
}

// farmGenerator is the generator of a repair farm of m heterogeneous
// machines: 2^m states, state s has machine i failed when bit i is set,
// machine i fails at λi and is repaired at μi.
func farmGenerator(m int) *Dense {
	rng := newTestRand(int64(m))
	lam, mu := make([]float64, m), make([]float64, m)
	for i := range lam {
		lam[i] = 0.02 + 0.06*rng.Float64()
		mu[i] = 0.5 + rng.Float64()
	}
	n := 1 << m
	q := NewDense(n, n)
	for s := 0; s < n; s++ {
		for i := 0; i < m; i++ {
			w := lam[i]
			if s>>i&1 == 1 {
				w = mu[i]
			}
			q.Set(s, s^1<<i, w)
			q.Add(s, s, -w)
		}
	}
	return q
}

// denseToCSR stores every nonzero of q, diagonal included.
func denseToCSR(q *Dense) *CSR {
	b := NewBuilder(q.Rows(), q.Cols())
	for i := 0; i < q.Rows(); i++ {
		for j := 0; j < q.Cols(); j++ {
			if err := b.Add(i, j, q.At(i, j)); err != nil {
				panic(err)
			}
		}
	}
	return b.Build()
}

// checkGTHMatchesReference runs GTH and GTHCSR on q and demands the
// reference's bits, or its error message.
func checkGTHMatchesReference(t *testing.T, name string, q *Dense) {
	t.Helper()
	want, wantErr := gthReference(q)
	for _, solver := range []struct {
		name  string
		solve func() ([]float64, error)
	}{
		{"GTH", func() ([]float64, error) { return GTH(q) }},
		{"GTHCSR", func() ([]float64, error) { return GTHCSR(denseToCSR(q)) }},
	} {
		got, err := solver.solve()
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s %s: error %v, reference %v", name, solver.name, err, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("%s %s: %d values, reference %d", name, solver.name, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s %s: π[%d] = %v (%#x), reference %v (%#x)", name, solver.name,
					i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
}

func TestGTHMatchesReference(t *testing.T) {
	rng := newTestRand(19)
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(79)
		zeros := 0.9 * rng.Float64()
		q := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j || rng.Float64() < zeros {
					continue
				}
				// Rates over six orders of magnitude, as in stiff
				// availability models.
				v := math.Pow(10, 6*rng.Float64()-3)
				q.Set(i, j, v)
				q.Add(i, i, -v)
			}
		}
		checkGTHMatchesReference(t, fmt.Sprintf("trial %d (n=%d, %.0f%% zeros)", trial, n, 100*zeros), q)
	}
	checkGTHMatchesReference(t, "farm n=512", farmGenerator(9))

	// A negative rate, reported at the first one in row-major order.
	neg := farmGenerator(3)
	neg.Set(5, 1, -0.25)
	neg.Set(2, 6, -0.5)
	checkGTHMatchesReference(t, "negative rate", neg)
	// Reducible: state 3 has no transition to a lower-numbered state.
	red := farmGenerator(2)
	red.Set(3, 1, 0)
	red.Set(3, 2, 0)
	checkGTHMatchesReference(t, "reducible", red)
}
