package dist

import (
	"fmt"
	"math"
	"math/rand"
)

// Weibull is the Weibull distribution with shape k and scale λ:
// F(t) = 1 - exp(-(t/λ)^k). Shape k < 1 models infant mortality
// (decreasing hazard), k = 1 is exponential, k > 1 models wear-out.
type Weibull struct {
	shape, scale float64
}

var (
	_ Distribution = Weibull{}
	_ Hazarder     = Weibull{}
)

// NewWeibull returns a Weibull distribution with the given shape and scale.
func NewWeibull(shape, scale float64) (Weibull, error) {
	if shape <= 0 || scale <= 0 || math.IsNaN(shape) || math.IsNaN(scale) {
		return Weibull{}, fmt.Errorf("weibull shape=%g scale=%g: %w", shape, scale, ErrBadParam)
	}
	return Weibull{shape: shape, scale: scale}, nil
}

// CDF returns 1 - exp(-(t/λ)^k).
func (d Weibull) CDF(t float64) float64 {
	if t <= 0 {
		return 0
	}
	return -math.Expm1(-math.Pow(t/d.scale, d.shape))
}

// PDF returns the Weibull density.
func (d Weibull) PDF(t float64) float64 {
	if t < 0 {
		return 0
	}
	if t == 0 { //numvet:allow float-eq hazard at exactly t=0 is a closed-form boundary case
		if d.shape < 1 {
			return math.Inf(1)
		}
		if d.shape == 1 { //numvet:allow float-eq shape exactly 1 is the exponential boundary case
			return 1 / d.scale
		}
		return 0
	}
	z := t / d.scale
	return d.shape / d.scale * math.Pow(z, d.shape-1) * math.Exp(-math.Pow(z, d.shape))
}

// Hazard returns (k/λ)(t/λ)^{k-1}.
func (d Weibull) Hazard(t float64) float64 {
	if t < 0 {
		return 0
	}
	if t == 0 { //numvet:allow float-eq hazard at exactly t=0 is a closed-form boundary case
		switch {
		case d.shape < 1:
			return math.Inf(1)
		case d.shape == 1: //numvet:allow float-eq shape exactly 1 is the exponential boundary case
			return 1 / d.scale
		default:
			return 0
		}
	}
	return d.shape / d.scale * math.Pow(t/d.scale, d.shape-1)
}

// Mean returns λ·Γ(1+1/k).
func (d Weibull) Mean() float64 {
	return d.scale * math.Gamma(1+1/d.shape)
}

// Var returns λ²(Γ(1+2/k) - Γ(1+1/k)²).
func (d Weibull) Var() float64 {
	g1 := math.Gamma(1 + 1/d.shape)
	g2 := math.Gamma(1 + 2/d.shape)
	return d.scale * d.scale * (g2 - g1*g1)
}

// Quantile returns λ(-ln(1-p))^{1/k}.
func (d Weibull) Quantile(p float64) (float64, error) {
	if err := checkProb(p); err != nil {
		return 0, err
	}
	return d.scale * math.Pow(-math.Log1p(-p), 1/d.shape), nil
}

// Rand draws a Weibull variate by inversion.
func (d Weibull) Rand(rng *rand.Rand) float64 {
	return d.scale * math.Pow(rng.ExpFloat64(), 1/d.shape)
}

// String implements fmt.Stringer.
func (d Weibull) String() string {
	return fmt.Sprintf("Weibull(shape=%g, scale=%g)", d.shape, d.scale)
}

// Lognormal is the lognormal distribution: ln X ~ N(mu, sigma²). It is the
// classic model for repair times.
type Lognormal struct {
	mu, sigma float64
}

var _ Distribution = Lognormal{}

// NewLognormal returns a lognormal distribution with log-mean mu and
// log-standard-deviation sigma.
func NewLognormal(mu, sigma float64) (Lognormal, error) {
	if sigma <= 0 || math.IsNaN(mu) || math.IsNaN(sigma) {
		return Lognormal{}, fmt.Errorf("lognormal mu=%g sigma=%g: %w", mu, sigma, ErrBadParam)
	}
	return Lognormal{mu: mu, sigma: sigma}, nil
}

// NewLognormalFromMoments returns the lognormal with the given mean and
// coefficient of variation cv = σ/μ of X itself.
func NewLognormalFromMoments(mean, cv float64) (Lognormal, error) {
	if mean <= 0 || cv <= 0 {
		return Lognormal{}, fmt.Errorf("lognormal mean=%g cv=%g: %w", mean, cv, ErrBadParam)
	}
	sigma2 := math.Log(1 + cv*cv)
	mu := math.Log(mean) - sigma2/2
	return Lognormal{mu: mu, sigma: math.Sqrt(sigma2)}, nil
}

// CDF returns Φ((ln t - mu)/sigma).
func (d Lognormal) CDF(t float64) float64 {
	if t <= 0 {
		return 0
	}
	return 0.5 * math.Erfc(-(math.Log(t)-d.mu)/(d.sigma*math.Sqrt2))
}

// PDF returns the lognormal density.
func (d Lognormal) PDF(t float64) float64 {
	if t <= 0 {
		return 0
	}
	z := (math.Log(t) - d.mu) / d.sigma
	return math.Exp(-z*z/2) / (t * d.sigma * math.Sqrt(2*math.Pi))
}

// Mean returns exp(mu + sigma²/2).
func (d Lognormal) Mean() float64 {
	return math.Exp(d.mu + d.sigma*d.sigma/2)
}

// Var returns (exp(sigma²)-1)·exp(2mu+sigma²).
func (d Lognormal) Var() float64 {
	s2 := d.sigma * d.sigma
	return math.Expm1(s2) * math.Exp(2*d.mu+s2)
}

// Quantile inverts the CDF via the normal quantile.
func (d Lognormal) Quantile(p float64) (float64, error) {
	if err := checkProb(p); err != nil {
		return 0, err
	}
	return math.Exp(d.mu + d.sigma*normalQuantile(p)), nil
}

// Rand draws a lognormal variate.
func (d Lognormal) Rand(rng *rand.Rand) float64 {
	return math.Exp(d.mu + d.sigma*rng.NormFloat64())
}

// String implements fmt.Stringer.
func (d Lognormal) String() string {
	return fmt.Sprintf("Lognormal(mu=%g, sigma=%g)", d.mu, d.sigma)
}

// normalQuantile is the standard normal quantile (Acklam's rational
// approximation refined by one Newton step on erfc).
func normalQuantile(p float64) float64 {
	// Coefficients for Acklam's approximation.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= phigh:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Newton refinement using the exact CDF.
	e := 0.5*math.Erfc(-x/math.Sqrt2) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	return x - u/(1+x*u/2)
}
