// Package dist provides the lifetime distributions used throughout the
// reliability models: exponential, Weibull, lognormal, gamma/Erlang,
// hypoexponential, hyperexponential, deterministic, uniform, and
// general phase-type. Each distribution exposes its CDF, density, hazard
// rate, moments, quantile function, and a sampler, so the same object can
// drive both the analytic solvers and the discrete-event simulator.
package dist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Distribution is a nonnegative lifetime distribution.
type Distribution interface {
	// CDF returns P(X ≤ t). For t < 0 it returns 0.
	CDF(t float64) float64
	// PDF returns the density at t (0 for t < 0).
	PDF(t float64) float64
	// Mean returns E[X].
	Mean() float64
	// Var returns Var(X).
	Var() float64
	// Quantile returns the p-quantile for p in (0,1).
	Quantile(p float64) (float64, error)
	// Rand draws one sample using the supplied source.
	Rand(rng *rand.Rand) float64
	// String describes the distribution.
	String() string
}

// Hazarder is implemented by distributions that expose a closed-form hazard
// (failure) rate h(t) = f(t)/(1-F(t)).
type Hazarder interface {
	Hazard(t float64) float64
}

// ErrBadParam reports an invalid distribution parameter.
var ErrBadParam = errors.New("dist: invalid parameter")

// ErrBadProb reports a probability argument outside (0,1).
var ErrBadProb = errors.New("dist: probability outside (0,1)")

// Survival returns 1 - d.CDF(t), the reliability function.
func Survival(d Distribution, t float64) float64 {
	return 1 - d.CDF(t)
}

// HazardOf returns the hazard rate of d at t, using the closed form when
// available and f(t)/R(t) otherwise.
func HazardOf(d Distribution, t float64) float64 { //numvet:allow unused-export inventory: DESIGN row 2, hazard
	if h, ok := d.(Hazarder); ok {
		return h.Hazard(t)
	}
	r := Survival(d, t)
	if r <= 0 {
		return math.Inf(1)
	}
	return d.PDF(t) / r
}

// checkProb validates a quantile probability.
func checkProb(p float64) error {
	if !(p > 0 && p < 1) {
		return fmt.Errorf("quantile p=%g: %w", p, ErrBadProb)
	}
	return nil
}

// numericQuantile inverts the CDF by bisection/Brent between 0 and an
// exponentially expanded upper bracket.
func numericQuantile(cdf func(float64) float64, p float64) (float64, error) {
	if err := checkProb(p); err != nil {
		return 0, err
	}
	hi := 1.0
	for i := 0; cdf(hi) < p; i++ {
		hi *= 2
		if i > 200 {
			return 0, fmt.Errorf("dist: quantile bracket did not close for p=%g", p)
		}
	}
	lo := 0.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if cdf(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-13*(1+hi) {
			break
		}
	}
	return (lo + hi) / 2, nil
}
