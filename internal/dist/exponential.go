package dist

import (
	"fmt"
	"math"
	"math/rand"
)

// Exponential is the exponential distribution with rate λ.
type Exponential struct {
	rate float64
}

var (
	_ Distribution = Exponential{}
	_ Hazarder     = Exponential{}
)

// NewExponential returns an exponential distribution with the given rate.
func NewExponential(rate float64) (Exponential, error) {
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return Exponential{}, fmt.Errorf("exponential rate %g: %w", rate, ErrBadParam)
	}
	return Exponential{rate: rate}, nil
}

// MustExponential is NewExponential for compile-time-constant rates; it
// panics on invalid input and is intended for examples and tests.
func MustExponential(rate float64) Exponential {
	d, err := NewExponential(rate)
	if err != nil {
		panic(err)
	}
	return d
}

// Rate returns λ.
func (d Exponential) Rate() float64 { return d.rate }

// CDF returns 1 - e^{-λt}.
func (d Exponential) CDF(t float64) float64 {
	if t <= 0 {
		return 0
	}
	return -math.Expm1(-d.rate * t)
}

// PDF returns λe^{-λt}.
func (d Exponential) PDF(t float64) float64 {
	if t < 0 {
		return 0
	}
	return d.rate * math.Exp(-d.rate*t)
}

// Hazard returns the constant hazard rate λ.
func (d Exponential) Hazard(float64) float64 { return d.rate }

// Mean returns 1/λ.
func (d Exponential) Mean() float64 { return 1 / d.rate }

// Var returns 1/λ².
func (d Exponential) Var() float64 { return 1 / (d.rate * d.rate) }

// Quantile returns -ln(1-p)/λ.
func (d Exponential) Quantile(p float64) (float64, error) {
	if err := checkProb(p); err != nil {
		return 0, err
	}
	return -math.Log1p(-p) / d.rate, nil
}

// Rand draws an exponential variate by inversion.
func (d Exponential) Rand(rng *rand.Rand) float64 {
	return rng.ExpFloat64() / d.rate
}

// String implements fmt.Stringer.
func (d Exponential) String() string { return fmt.Sprintf("Exp(rate=%g)", d.rate) }

// Deterministic is the point mass at value v (e.g., a fixed rejuvenation
// interval or scheduled-maintenance delay).
type Deterministic struct {
	value float64
}

var _ Distribution = Deterministic{}

// NewDeterministic returns a point mass at v ≥ 0.
func NewDeterministic(v float64) (Deterministic, error) {
	if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return Deterministic{}, fmt.Errorf("deterministic value %g: %w", v, ErrBadParam)
	}
	return Deterministic{value: v}, nil
}

// CDF is the step function at the value.
func (d Deterministic) CDF(t float64) float64 {
	if t >= d.value {
		return 1
	}
	return 0
}

// PDF returns 0 everywhere (the distribution has no density); callers that
// need the mass should use CDF.
func (d Deterministic) PDF(float64) float64 { return 0 }

// Mean returns the value.
func (d Deterministic) Mean() float64 { return d.value }

// Var returns 0.
func (d Deterministic) Var() float64 { return 0 }

// Quantile returns the value for any p in (0,1).
func (d Deterministic) Quantile(p float64) (float64, error) {
	if err := checkProb(p); err != nil {
		return 0, err
	}
	return d.value, nil
}

// Rand returns the value.
func (d Deterministic) Rand(*rand.Rand) float64 { return d.value }

// String implements fmt.Stringer.
func (d Deterministic) String() string { return fmt.Sprintf("Det(%g)", d.value) }

// Uniform is the continuous uniform distribution on [a, b].
type Uniform struct {
	a, b float64
}

var _ Distribution = Uniform{}

// NewUniform returns a uniform distribution on [a, b], 0 ≤ a < b.
func NewUniform(a, b float64) (Uniform, error) {
	if a < 0 || b <= a || math.IsNaN(a) || math.IsInf(b, 0) {
		return Uniform{}, fmt.Errorf("uniform [%g,%g]: %w", a, b, ErrBadParam)
	}
	return Uniform{a: a, b: b}, nil
}

// CDF returns the uniform CDF.
func (d Uniform) CDF(t float64) float64 {
	switch {
	case t <= d.a:
		return 0
	case t >= d.b:
		return 1
	default:
		return (t - d.a) / (d.b - d.a)
	}
}

// PDF returns the uniform density.
func (d Uniform) PDF(t float64) float64 {
	if t < d.a || t > d.b {
		return 0
	}
	return 1 / (d.b - d.a)
}

// Mean returns (a+b)/2.
func (d Uniform) Mean() float64 { return (d.a + d.b) / 2 }

// Var returns (b-a)²/12.
func (d Uniform) Var() float64 { w := d.b - d.a; return w * w / 12 }

// Quantile returns a + p(b-a).
func (d Uniform) Quantile(p float64) (float64, error) {
	if err := checkProb(p); err != nil {
		return 0, err
	}
	return d.a + p*(d.b-d.a), nil
}

// Rand draws a uniform variate.
func (d Uniform) Rand(rng *rand.Rand) float64 {
	return d.a + rng.Float64()*(d.b-d.a)
}

// String implements fmt.Stringer.
func (d Uniform) String() string { return fmt.Sprintf("U[%g,%g]", d.a, d.b) }
