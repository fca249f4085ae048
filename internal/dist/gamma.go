package dist

import (
	"fmt"
	"math"
	"math/rand"
)

// Gamma is the gamma distribution with shape k and rate β (mean k/β).
// Integer shape gives the Erlang distribution.
type Gamma struct {
	shape, rate float64
}

var _ Distribution = Gamma{}

// NewGamma returns a gamma distribution with the given shape and rate.
func NewGamma(shape, rate float64) (Gamma, error) {
	if shape <= 0 || rate <= 0 || math.IsNaN(shape) || math.IsNaN(rate) {
		return Gamma{}, fmt.Errorf("gamma shape=%g rate=%g: %w", shape, rate, ErrBadParam)
	}
	return Gamma{shape: shape, rate: rate}, nil
}

// CDF returns the regularized lower incomplete gamma P(k, βt).
func (d Gamma) CDF(t float64) float64 {
	if t <= 0 {
		return 0
	}
	return regIncGammaLower(d.shape, d.rate*t)
}

// PDF returns the gamma density.
func (d Gamma) PDF(t float64) float64 {
	if t < 0 {
		return 0
	}
	if t == 0 { //numvet:allow float-eq hazard at exactly t=0 is a closed-form boundary case
		switch {
		case d.shape < 1:
			return math.Inf(1)
		case d.shape == 1: //numvet:allow float-eq shape exactly 1 is the exponential boundary case
			return d.rate
		default:
			return 0
		}
	}
	lg, _ := math.Lgamma(d.shape)
	return math.Exp(d.shape*math.Log(d.rate) + (d.shape-1)*math.Log(t) - d.rate*t - lg)
}

// Mean returns k/β.
func (d Gamma) Mean() float64 { return d.shape / d.rate }

// Var returns k/β².
func (d Gamma) Var() float64 { return d.shape / (d.rate * d.rate) }

// Quantile inverts the CDF numerically.
func (d Gamma) Quantile(p float64) (float64, error) {
	return numericQuantile(d.CDF, p)
}

// Rand draws a gamma variate with the Marsaglia–Tsang method.
func (d Gamma) Rand(rng *rand.Rand) float64 {
	k := d.shape
	boost := 1.0
	if k < 1 {
		// Boost: X ~ Gamma(k+1), return X·U^{1/k}.
		boost = math.Pow(rng.Float64(), 1/k)
		k++
	}
	dd := k - 1.0/3
	c := 1 / math.Sqrt(9*dd)
	for { //numvet:allow unbounded-loop Marsaglia-Tsang rejection sampling; acceptance probability is >0.95 per draw
		var x, v float64
		for { //numvet:allow unbounded-loop v>0 rejection; accepts with probability >0.99 per normal draw
			x = rng.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return boost * dd * v / d.rate
		}
		if math.Log(u) < 0.5*x*x+dd*(1-v+math.Log(v)) {
			return boost * dd * v / d.rate
		}
	}
}

// String implements fmt.Stringer.
func (d Gamma) String() string { return fmt.Sprintf("Gamma(shape=%g, rate=%g)", d.shape, d.rate) }

// regIncGammaLower computes the regularized lower incomplete gamma function
// P(a, x) via the series for x < a+1 and the continued fraction otherwise
// (Numerical Recipes gser/gcf).
func regIncGammaLower(a, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x < a+1 {
		// Series representation.
		lg, _ := math.Lgamma(a)
		ap := a
		sum := 1 / a
		del := sum
		for i := 0; i < 500; i++ {
			ap++
			del *= x / ap
			sum += del
			if math.Abs(del) < math.Abs(sum)*1e-16 {
				break
			}
		}
		return sum * math.Exp(-x+a*math.Log(x)-lg)
	}
	// Continued fraction for Q(a,x), then P = 1-Q.
	lg, _ := math.Lgamma(a)
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	dd := 1 / b
	h := dd
	for i := 1; i < 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		dd = an*dd + b
		if math.Abs(dd) < tiny {
			dd = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		dd = 1 / dd
		del := dd * c
		h *= del
		if math.Abs(del-1) < 1e-16 {
			break
		}
	}
	q := math.Exp(-x+a*math.Log(x)-lg) * h
	return 1 - q
}
