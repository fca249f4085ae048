package dist_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dist"
	"repro/internal/phfit"
)

// ksDistance returns the Kolmogorov–Smirnov distance between the empirical
// CDF of sorted and ref, evaluated at the sample points (where the supremum
// of a step-vs-continuous comparison is attained).
func ksDistance(sorted []float64, ref dist.Distribution) float64 {
	n := float64(len(sorted))
	var worst float64
	for i, x := range sorted {
		f := ref.CDF(x)
		worst = math.Max(worst, math.Max(math.Abs(f-float64(i)/n), math.Abs(f-float64(i+1)/n)))
	}
	return worst
}

func TestMeasurementToPhaseTypePipeline(t *testing.T) {
	// The full measurement loop: sample a Weibull "field data" set, fit a
	// phase-type via its sample moments, and verify the fit by KS against
	// the data.
	rng := rand.New(rand.NewSource(12))
	field, err := dist.NewWeibull(2, 50)
	if err != nil {
		t.Fatal(err)
	}
	sample := make([]float64, 4000)
	var sum float64
	for i := range sample {
		sample[i] = field.Rand(rng)
		sum += sample[i]
	}
	sort.Float64s(sample)
	mean := sum / float64(len(sample))
	var ss float64
	for _, x := range sample {
		ss += (x - mean) * (x - mean)
	}
	variance := ss / float64(len(sample)-1)
	fit, err := phfit.FitTwoMoment(mean, variance/(mean*mean))
	if err != nil {
		t.Fatal(err)
	}
	// A 2-moment PH fit of Weibull(2) lands within a few percent sup-norm.
	ks := ksDistance(sample, fit)
	if ks > 0.05 {
		t.Errorf("KS of PH fit vs field data = %g, want < 0.05", ks)
	}
	// The exponential with the same mean is a much worse fit.
	if ksExp := ksDistance(sample, dist.MustExponential(1/mean)); ksExp < 2*ks {
		t.Errorf("exponential KS %g should be far worse than PH %g", ksExp, ks)
	}
}
