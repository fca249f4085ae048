package dist

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Empirical is the distribution of an observed sample: the step-function
// CDF of measured lifetimes or repair times. It closes the loop between
// measurement data and the analytic models — fit a phase-type to it, check
// the fit with the Kolmogorov–Smirnov distance, then embed the fit in a
// Markov model.
type Empirical struct {
	sorted []float64
	mean   float64
	vari   float64
}

var _ Distribution = (*Empirical)(nil)

// NewEmpirical builds the empirical distribution of the (nonnegative)
// sample. The data is copied.
func NewEmpirical(sample []float64) (*Empirical, error) { //numvet:allow unused-export delete: empirical distribution; no binary reaches it, and it goes with its five tests
	if len(sample) == 0 {
		return nil, fmt.Errorf("empirical: empty sample: %w", ErrBadParam)
	}
	sorted := make([]float64, len(sample))
	copy(sorted, sample)
	var sum float64
	for _, x := range sorted {
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("empirical: bad observation %g: %w", x, ErrBadParam)
		}
		sum += x
	}
	sort.Float64s(sorted)
	n := float64(len(sorted))
	mean := sum / n
	var v float64
	for _, x := range sorted {
		d := x - mean
		v += d * d
	}
	if len(sorted) > 1 {
		v /= n - 1
	} else {
		v = 0
	}
	return &Empirical{sorted: sorted, mean: mean, vari: v}, nil
}

// N returns the sample size.
func (d *Empirical) N() int { return len(d.sorted) } //numvet:allow unused-export delete: empirical distribution; no binary reaches it, and it goes with its five tests

// CDF returns the fraction of observations ≤ t.
func (d *Empirical) CDF(t float64) float64 {
	// First index with value > t.
	idx := sort.SearchFloat64s(d.sorted, math.Nextafter(t, math.Inf(1)))
	return float64(idx) / float64(len(d.sorted))
}

// PDF returns 0: the empirical distribution has no density. Use a fitted
// parametric or phase-type distribution where a density is required.
func (d *Empirical) PDF(float64) float64 { return 0 }

// Mean returns the sample mean.
func (d *Empirical) Mean() float64 { return d.mean }

// Var returns the unbiased sample variance.
func (d *Empirical) Var() float64 { return d.vari }

// Quantile returns the order statistic at level p.
func (d *Empirical) Quantile(p float64) (float64, error) {
	if err := checkProb(p); err != nil {
		return 0, err
	}
	idx := int(math.Ceil(p*float64(len(d.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(d.sorted) {
		idx = len(d.sorted) - 1
	}
	return d.sorted[idx], nil
}

// Rand draws by resampling (bootstrap).
func (d *Empirical) Rand(rng *rand.Rand) float64 {
	return d.sorted[rng.Intn(len(d.sorted))]
}

// String implements fmt.Stringer.
func (d *Empirical) String() string {
	return fmt.Sprintf("Empirical(n=%d, mean=%.4g)", len(d.sorted), d.mean)
}

// KolmogorovSmirnov returns the KS statistic sup_t |F_emp(t) - F(t)|
// between the empirical distribution and a reference distribution,
// evaluated at the sample points (where the supremum of a step-vs-
// continuous comparison is attained).
func (d *Empirical) KolmogorovSmirnov(ref Distribution) (float64, error) { //numvet:allow unused-export delete: empirical distribution; no binary reaches it, and it goes with its five tests
	if ref == nil {
		return 0, fmt.Errorf("empirical: nil reference: %w", ErrBadParam)
	}
	n := float64(len(d.sorted))
	var worst float64
	for i, x := range d.sorted {
		f := ref.CDF(x)
		// Compare against the empirical CDF just before and at x.
		lo := float64(i) / n
		hi := float64(i+1) / n
		if d1 := math.Abs(f - lo); d1 > worst {
			worst = d1
		}
		if d2 := math.Abs(f - hi); d2 > worst {
			worst = d2
		}
	}
	return worst, nil
}
