package dist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// relErr returns |a-b| / max(|b|, 1e-300).
func relErr(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Abs(b); m > 1e-300 {
		return d / m
	}
	return d
}

func TestExponentialBasics(t *testing.T) {
	d, err := NewExponential(2)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(d.Mean(), 0.5, 1e-15) {
		t.Errorf("mean = %g", d.Mean())
	}
	if !almostEqual(d.Var(), 0.25, 1e-15) {
		t.Errorf("var = %g", d.Var())
	}
	if !almostEqual(d.CDF(1), 1-math.Exp(-2), 1e-15) {
		t.Errorf("cdf(1) = %g", d.CDF(1))
	}
	if d.CDF(-1) != 0 {
		t.Errorf("cdf(-1) = %g", d.CDF(-1))
	}
	if d.Hazard(100) != 2 {
		t.Errorf("hazard = %g", d.Hazard(100))
	}
	q, err := d.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(d.CDF(q), 0.5, 1e-12) {
		t.Errorf("quantile roundtrip: cdf(q) = %g", d.CDF(q))
	}
}

func TestExponentialBadParams(t *testing.T) {
	for _, rate := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewExponential(rate); err == nil {
			t.Errorf("rate %v: want error", rate)
		}
	}
	d := MustExponential(1)
	for _, p := range []float64{0, 1, -0.5, 1.5} {
		if _, err := d.Quantile(p); err == nil {
			t.Errorf("quantile(%g): want error", p)
		}
	}
}

func TestDeterministicAndUniform(t *testing.T) {
	det, err := NewDeterministic(3)
	if err != nil {
		t.Fatal(err)
	}
	if det.CDF(2.9) != 0 || det.CDF(3) != 1 {
		t.Error("deterministic CDF step wrong")
	}
	if det.Mean() != 3 || det.Var() != 0 {
		t.Error("deterministic moments wrong")
	}
	u, err := NewUniform(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if u.Mean() != 2 {
		t.Errorf("uniform mean = %g", u.Mean())
	}
	if !almostEqual(u.Var(), 4.0/12, 1e-15) {
		t.Errorf("uniform var = %g", u.Var())
	}
	if u.CDF(2) != 0.5 {
		t.Errorf("uniform cdf(2) = %g", u.CDF(2))
	}
	if _, err := NewUniform(3, 1); err == nil {
		t.Error("want error for b<a")
	}
}

func TestWeibullSpecialCases(t *testing.T) {
	// shape=1 is exponential with rate 1/scale.
	w, err := NewWeibull(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	e := MustExponential(0.5)
	for _, x := range []float64{0.1, 1, 5, 20} {
		if relErr(w.CDF(x), e.CDF(x)) > 1e-12 {
			t.Errorf("weibull(1,2).CDF(%g) = %g, exp = %g", x, w.CDF(x), e.CDF(x))
		}
		if relErr(w.PDF(x), e.PDF(x)) > 1e-12 {
			t.Errorf("weibull(1,2).PDF(%g) mismatch", x)
		}
	}
	if !almostEqual(w.Mean(), 2, 1e-12) {
		t.Errorf("mean = %g", w.Mean())
	}
}

func TestWeibullHazardShape(t *testing.T) {
	wear, _ := NewWeibull(2, 1)
	if wear.Hazard(0.5) >= wear.Hazard(2) {
		t.Error("increasing hazard expected for shape > 1")
	}
	infant, _ := NewWeibull(0.5, 1)
	if infant.Hazard(0.5) <= infant.Hazard(2) {
		t.Error("decreasing hazard expected for shape < 1")
	}
	if !math.IsInf(infant.Hazard(0), 1) {
		t.Error("hazard at 0 should be +Inf for shape < 1")
	}
}

func TestLognormal(t *testing.T) {
	d, err := NewLognormal(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Median of lognormal(0,1) is 1.
	if !almostEqual(d.CDF(1), 0.5, 1e-12) {
		t.Errorf("cdf(1) = %g", d.CDF(1))
	}
	if !almostEqual(d.Mean(), math.Exp(0.5), 1e-12) {
		t.Errorf("mean = %g", d.Mean())
	}
	q, err := d.Quantile(0.975)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(d.CDF(q), 0.975) > 1e-9 {
		t.Errorf("quantile roundtrip cdf(q)=%g", d.CDF(q))
	}
}

func TestLognormalFromMoments(t *testing.T) {
	d, err := NewLognormalFromMoments(4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(d.Mean(), 4) > 1e-12 {
		t.Errorf("mean = %g, want 4", d.Mean())
	}
	cv := math.Sqrt(d.Var()) / d.Mean()
	if relErr(cv, 0.5) > 1e-12 {
		t.Errorf("cv = %g, want 0.5", cv)
	}
}

func TestGammaIntegerShapeMatchesErlang(t *testing.T) {
	g, err := NewGamma(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	erl, err := NewErlang(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.2, 1, 2.5, 6} {
		if relErr(g.CDF(x), erl.CDF(x)) > 1e-8 {
			t.Errorf("gamma vs erlang CDF(%g): %g vs %g", x, g.CDF(x), erl.CDF(x))
		}
	}
	if relErr(g.Mean(), erl.Mean()) > 1e-10 {
		t.Errorf("means: %g vs %g", g.Mean(), erl.Mean())
	}
	if relErr(g.Var(), erl.Var()) > 1e-10 {
		t.Errorf("vars: %g vs %g", g.Var(), erl.Var())
	}
}

func TestGammaCDFKnownValues(t *testing.T) {
	// Gamma(1, rate) is exponential.
	g, _ := NewGamma(1, 3)
	e := MustExponential(3)
	for _, x := range []float64{0.1, 1, 4} {
		if relErr(g.CDF(x), e.CDF(x)) > 1e-12 {
			t.Errorf("gamma(1,3) vs exp(3) at %g", x)
		}
	}
	// Erlang-2 closed form: F(t) = 1 - e^{-bt}(1+bt).
	g2, _ := NewGamma(2, 1.5)
	for _, x := range []float64{0.5, 2, 7} {
		want := 1 - math.Exp(-1.5*x)*(1+1.5*x)
		if relErr(g2.CDF(x), want) > 1e-10 {
			t.Errorf("erlang2 cdf(%g) = %g, want %g", x, g2.CDF(x), want)
		}
	}
}

func TestPhaseTypeErlangMoments(t *testing.T) {
	ph, err := NewErlang(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(ph.Mean(), 2) > 1e-12 { // k/rate = 4/2
		t.Errorf("mean = %g, want 2", ph.Mean())
	}
	if relErr(ph.Var(), 1) > 1e-12 { // k/rate² = 4/4
		t.Errorf("var = %g, want 1", ph.Var())
	}
	if relErr(ph.SCV(), 0.25) > 1e-12 { // 1/k
		t.Errorf("scv = %g, want 0.25", ph.SCV())
	}
}

func TestPhaseTypeCDFMatchesExponential(t *testing.T) {
	ph, err := NewErlang(1, 1.7)
	if err != nil {
		t.Fatal(err)
	}
	e := MustExponential(1.7)
	for _, x := range []float64{0.1, 0.9, 3, 8} {
		if relErr(ph.CDF(x), e.CDF(x)) > 1e-9 {
			t.Errorf("PH vs exp CDF(%g): %g vs %g", x, ph.CDF(x), e.CDF(x))
		}
		if relErr(ph.PDF(x), e.PDF(x)) > 1e-8 {
			t.Errorf("PH vs exp PDF(%g): %g vs %g", x, ph.PDF(x), e.PDF(x))
		}
	}
}

func TestHypoHyperSCV(t *testing.T) {
	hypo, err := NewHypoexponential(1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if hypo.SCV() >= 1 {
		t.Errorf("hypoexponential SCV = %g, want < 1", hypo.SCV())
	}
	wantMean := 1.0 + 0.5 + 1.0/3
	if relErr(hypo.Mean(), wantMean) > 1e-12 {
		t.Errorf("hypo mean = %g, want %g", hypo.Mean(), wantMean)
	}
	hyper, err := NewHyperexponential([]float64{0.4, 0.6}, []float64{0.5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if hyper.SCV() <= 1 {
		t.Errorf("hyperexponential SCV = %g, want > 1", hyper.SCV())
	}
	wantMean = 0.4/0.5 + 0.6/5
	if relErr(hyper.Mean(), wantMean) > 1e-12 {
		t.Errorf("hyper mean = %g, want %g", hyper.Mean(), wantMean)
	}
}

func TestPhaseTypeValidation(t *testing.T) {
	if _, err := NewErlang(0, 1); err == nil {
		t.Error("want error for k=0")
	}
	if _, err := NewHyperexponential([]float64{0.5, 0.4}, []float64{1, 1}); err == nil {
		t.Error("want error for probs not summing to 1")
	}
	if _, err := NewHypoexponential(); err == nil {
		t.Error("want error for empty rates")
	}
}

func TestSamplingMeansMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 200000
	dists := []Distribution{
		MustExponential(2),
		mustWeibull(t, 2, 3),
		mustLognormal(t, 0.5, 0.6),
		mustGamma(t, 2.5, 1.5),
		mustErlang(t, 3, 2),
	}
	for _, d := range dists {
		var sum float64
		for i := 0; i < n; i++ {
			sum += d.Rand(rng)
		}
		got := sum / n
		// 3-sigma band on the sample mean.
		se := math.Sqrt(d.Var() / n)
		if math.Abs(got-d.Mean()) > 4*se+1e-9 {
			t.Errorf("%v: sample mean %g, want %g ± %g", d, got, d.Mean(), 4*se)
		}
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	dists := []Distribution{
		MustExponential(1.3),
		mustWeibull(t, 1.8, 2),
		mustLognormal(t, 0, 0.9),
		mustGamma(t, 3, 1),
	}
	f := func(a, b float64) bool {
		x, y := math.Abs(a), math.Abs(b)
		if x > y {
			x, y = y, x
		}
		for _, d := range dists {
			if d.CDF(x) > d.CDF(y)+1e-12 {
				return false
			}
			if d.CDF(x) < 0 || d.CDF(y) > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileRoundtripProperty(t *testing.T) {
	dists := []Distribution{
		MustExponential(0.7),
		mustWeibull(t, 2.2, 1.5),
		mustGamma(t, 1.7, 2.0),
	}
	f := func(raw float64) bool {
		p := math.Mod(math.Abs(raw), 1)
		if p < 0.001 || p > 0.999 {
			p = 0.5
		}
		for _, d := range dists {
			q, err := d.Quantile(p)
			if err != nil {
				return false
			}
			if relErr(d.CDF(q), p) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHazardOfFallback(t *testing.T) {
	g, _ := NewGamma(2, 1) // no closed-form Hazard method
	h := HazardOf(g, 1)
	want := g.PDF(1) / (1 - g.CDF(1))
	if relErr(h, want) > 1e-12 {
		t.Errorf("hazard fallback = %g, want %g", h, want)
	}
	e := MustExponential(3) // closed form
	if HazardOf(e, 10) != 3 {
		t.Error("closed-form hazard not used")
	}
}

func mustWeibull(t *testing.T, shape, scale float64) Weibull {
	t.Helper()
	d, err := NewWeibull(shape, scale)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustLognormal(t *testing.T, mu, sigma float64) Lognormal {
	t.Helper()
	d, err := NewLognormal(mu, sigma)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustGamma(t *testing.T, shape, rate float64) Gamma {
	t.Helper()
	d, err := NewGamma(shape, rate)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustErlang(t *testing.T, k int, rate float64) *PhaseType {
	t.Helper()
	d, err := NewErlang(k, rate)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPhaseTypeMoments(t *testing.T) {
	// Erlang(k, rate): E[X^m] = (k+m-1)!/(k-1)! / rate^m.
	ph := mustErlang(t, 3, 2)
	m1, err := ph.moment(1)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(m1, 1.5) > 1e-12 {
		t.Errorf("m1 = %g, want 1.5", m1)
	}
	m2, err := ph.moment(2)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(m2, 3.0/4*4) > 1e-12 { // 3·4/2² = 3
		t.Errorf("m2 = %g, want 3", m2)
	}
	m3, err := ph.moment(3)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(m3, 3.0*4*5/8) > 1e-12 { // 7.5
		t.Errorf("m3 = %g, want 7.5", m3)
	}
}
