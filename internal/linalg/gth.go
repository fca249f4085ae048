package linalg

import (
	"fmt"
	"math"

	"repro/internal/failpoint"
)

// GTH computes the stationary probability vector π of an irreducible CTMC
// whose infinitesimal generator Q is given densely (π·Q = 0, Σπ = 1), using
// the Grassmann–Taksar–Heyman state-reduction algorithm.
//
// GTH performs no subtractions, so it is numerically stable even for stiff
// generators (rates spanning many orders of magnitude), which is the common
// case in availability models (failure rates ~1e-5/h vs repair rates ~1/h).
//
// The input matrix is not modified. Diagonal entries of Q are ignored and
// reconstructed from the off-diagonal rates, so callers may pass either a
// full generator or just the rate matrix.
func GTH(q *Dense) ([]float64, error) {
	return gth(q.Rows(), q.Cols(), func(a []float64) { copy(a, q.data) })
}

// GTHCSR runs GTH on a sparse generator, scattering its entries straight
// into the dense working matrix. GTH fill-in makes a truly sparse variant
// unprofitable below a few thousand states, which is the regime where GTH
// is used; larger chains should use SOR.
func GTHCSR(q *CSR) ([]float64, error) {
	return gth(q.rows, q.cols, func(a []float64) {
		for i := 0; i < q.rows; i++ {
			for k := q.rowPtr[i]; k < q.rowPtr[i+1]; k++ {
				a[i*q.cols+q.colIdx[k]] = q.vals[k]
			}
		}
	})
}

// gth evaluates the linalg.gth failpoint once, checks the shape, has fill
// write the generator row-major into a zeroed n×n working matrix, checks
// its off-diagonal rates in row-major order, and runs the state reduction
// and back substitution on it.
//
// Neither step reads the diagonal a(i,i), so the reduction's axpy runs
// over the whole row prefix, diagonal included, with no branch: the term
// it adds there is never read, and every other entry gets the same
// operations in the same order as a loop that skips it.
func gth(rows, cols int, fill func(a []float64)) ([]float64, error) {
	if err := failpoint.Inject(fpGTH); err != nil {
		return nil, err
	}
	n := rows
	if cols != n {
		return nil, fmt.Errorf("gth: matrix %dx%d not square: %w", rows, cols, ErrDimensionMismatch)
	}
	if n == 0 {
		return nil, fmt.Errorf("gth: empty generator")
	}
	if n == 1 {
		return []float64{1}, nil
	}
	a := NewDense(n, n)
	fill(a.data)
	for i := 0; i < n; i++ {
		for j, v := range a.Row(i) {
			if v < 0 && j != i {
				return nil, fmt.Errorf("gth: negative rate %g at (%d,%d)", v, i, j)
			}
		}
	}
	// State reduction from the last state down to state 1.
	for k := n - 1; k >= 1; k-- {
		krow := a.Row(k)[:k]
		// Total outflow of state k to states 0..k-1.
		var s float64
		for _, v := range krow {
			s += v
		}
		if s == 0 { //numvet:allow float-eq exactly-zero sum means a structurally reducible generator
			return nil, fmt.Errorf("gth: state %d has no transitions to lower-indexed states; %w", k, ErrReducible)
		}
		for i := 0; i < k; i++ {
			aik := a.At(i, k)
			if aik == 0 { //numvet:allow float-eq skipping exact zeros is a sparsity optimization
				continue
			}
			f := aik / s
			// Four elements a trip: a scalar axpy is bound by its loop
			// overhead, not by its arithmetic.
			row := a.Row(i)[:len(krow)]
			j := 0
			for ; j+4 <= len(krow); j += 4 {
				r, v := row[j:j+4:j+4], krow[j:j+4:j+4]
				r[0] += f * v[0]
				r[1] += f * v[1]
				r[2] += f * v[2]
				r[3] += f * v[3]
			}
			for ; j < len(krow); j++ {
				row[j] += f * krow[j]
			}
		}
	}
	// Back substitution: π̃(0)=1, π̃(k) = Σ_{i<k} π̃(i)·a(i,k)/s(k). On a
	// chain whose probabilities grow fast along the numbering π̃ can
	// overflow; only then is π̃(0..k-1) scaled down by a power of two,
	// which is exact, and π̃(k) computed again. total is Σ π̃ in Sum's
	// order, so a vector Normalize1 accepts is never rescaled.
	pi := make([]float64, n)
	pi[0] = 1
	total := 1.0
	for k := 1; k < n; k++ {
		var s float64
		for _, v := range a.Row(k)[:k] {
			s += v
		}
		pk := gthBack(pi[:k], a, k) / s
		if math.IsInf(pk, 1) || math.IsInf(total+pk, 1) {
			_, e := math.Frexp(total)
			for i := range pi[:k] {
				pi[i] = math.Ldexp(pi[i], -e)
			}
			total = math.Ldexp(total, -e)
			pk = gthBack(pi[:k], a, k) / s
		}
		pi[k] = pk
		total += pk
	}
	if err := Normalize1(pi); err != nil {
		return nil, fmt.Errorf("gth: %w", err)
	}
	return pi, nil
}

// gthBack is the numerator of GTH's back substitution for state k:
// Σ_{i<k} π̃(i)·a(i,k), summed in index order.
func gthBack(pi []float64, a *Dense, k int) float64 {
	var num float64
	for i, p := range pi {
		num += p * a.At(i, k)
	}
	return num
}
