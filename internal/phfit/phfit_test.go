package phfit

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dist"
)

func relErr(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Abs(b); m > 1e-300 {
		return d / m
	}
	return d
}

func TestFitExponentialBand(t *testing.T) {
	ph, err := FitTwoMoment(2.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ph.Order() != 1 {
		t.Errorf("order = %d, want 1 (exponential)", ph.Order())
	}
	if relErr(ph.Mean(), 2.5) > 1e-12 {
		t.Errorf("mean = %g", ph.Mean())
	}
	if relErr(ph.SCV(), 1) > 1e-12 {
		t.Errorf("scv = %g", ph.SCV())
	}
}

func TestFitHyperexponential(t *testing.T) {
	for _, scv := range []float64{1.5, 2, 5, 20} {
		ph, err := FitTwoMoment(3, scv)
		if err != nil {
			t.Fatalf("scv=%g: %v", scv, err)
		}
		if relErr(ph.Mean(), 3) > 1e-10 {
			t.Errorf("scv=%g: mean = %g, want 3", scv, ph.Mean())
		}
		if relErr(ph.SCV(), scv) > 1e-9 {
			t.Errorf("scv=%g: fitted scv = %g", scv, ph.SCV())
		}
		if ph.Order() != 2 {
			t.Errorf("scv=%g: order = %d, want 2", scv, ph.Order())
		}
	}
}

func TestFitErlangMixture(t *testing.T) {
	for _, scv := range []float64{0.9, 0.5, 0.3, 0.1, 0.04} {
		ph, err := FitTwoMoment(10, scv)
		if err != nil {
			t.Fatalf("scv=%g: %v", scv, err)
		}
		if relErr(ph.Mean(), 10) > 1e-9 {
			t.Errorf("scv=%g: mean = %g, want 10", scv, ph.Mean())
		}
		if relErr(ph.SCV(), scv) > 1e-8 {
			t.Errorf("scv=%g: fitted scv = %g", scv, ph.SCV())
		}
	}
}

func TestFitMomentsProperty(t *testing.T) {
	// Property: fitted PH matches target mean and SCV across the range.
	f := func(rawMean, rawSCV float64) bool {
		mean := 0.1 + math.Mod(math.Abs(rawMean), 100)
		scv := 0.05 + math.Mod(math.Abs(rawSCV), 8)
		ph, err := FitTwoMoment(mean, scv)
		if err != nil {
			return false
		}
		return relErr(ph.Mean(), mean) < 1e-8 && relErr(ph.SCV(), scv) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFitDistributionWeibull(t *testing.T) {
	w, err := dist.NewWeibull(2, 100)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := FitDistribution(w)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(ph.Mean(), w.Mean()) > 1e-8 {
		t.Errorf("mean: %g vs %g", ph.Mean(), w.Mean())
	}
	if relErr(ph.Var(), w.Var()) > 1e-6 {
		t.Errorf("var: %g vs %g", ph.Var(), w.Var())
	}
	// Weibull shape 2 has SCV < 1 → Erlang mixture with > 1 phase.
	if ph.Order() < 2 {
		t.Errorf("order = %d, want >= 2", ph.Order())
	}
	// The fit also follows the CDF's shape: within a few percent in the
	// sup norm, where the exponential of the same mean is far worse.
	exp := dist.MustExponential(1 / w.Mean())
	var supPH, supExp float64
	for x := 0.5; x <= 500; x += 0.5 {
		supPH = math.Max(supPH, math.Abs(ph.CDF(x)-w.CDF(x)))
		supExp = math.Max(supExp, math.Abs(exp.CDF(x)-w.CDF(x)))
	}
	if supPH > 0.05 {
		t.Errorf("sup |F_ph - F| = %g, want < 0.05", supPH)
	}
	if supExp < 2*supPH {
		t.Errorf("exponential sup distance %g should be far worse than the fit's %g", supExp, supPH)
	}
}

func TestFitDistributionLognormalHighCV(t *testing.T) {
	ln, err := dist.NewLognormalFromMoments(5, 2) // cv=2 → scv=4 > 1
	if err != nil {
		t.Fatal(err)
	}
	ph, err := FitDistribution(ln)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(ph.Mean(), 5) > 1e-8 {
		t.Errorf("mean = %g", ph.Mean())
	}
	if relErr(ph.SCV(), 4) > 1e-6 {
		t.Errorf("scv = %g, want 4", ph.SCV())
	}
}

func TestFitNearDeterministic(t *testing.T) {
	ph, err := FitNearDeterministic(7, 25)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(ph.Mean(), 7) > 1e-10 {
		t.Errorf("mean = %g", ph.Mean())
	}
	if relErr(ph.SCV(), 1.0/25) > 1e-10 {
		t.Errorf("scv = %g, want 0.04", ph.SCV())
	}
	det, err := dist.NewDeterministic(7)
	if err != nil {
		t.Fatal(err)
	}
	phd, err := FitDistribution(det)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(phd.Mean(), 7) > 1e-10 {
		t.Errorf("deterministic fit mean = %g", phd.Mean())
	}
	if phd.SCV() > 0.05 {
		t.Errorf("deterministic fit scv = %g, want small", phd.SCV())
	}
}

func TestCDFShapeConvergence(t *testing.T) {
	// Higher-order deterministic approximations approach the step CDF:
	// error at t = 0.8·mean shrinks with k.
	mean := 1.0
	prevErr := math.Inf(1)
	for _, k := range []int{2, 8, 32} {
		ph, err := FitNearDeterministic(mean, k)
		if err != nil {
			t.Fatal(err)
		}
		e := ph.CDF(0.8 * mean) // true step CDF is 0 here
		if e > prevErr+1e-12 {
			t.Errorf("k=%d: CDF error %g did not shrink from %g", k, e, prevErr)
		}
		prevErr = e
	}
}

func TestBadInputs(t *testing.T) {
	if _, err := FitTwoMoment(0, 1); !errors.Is(err, ErrBadMoments) {
		t.Errorf("zero mean: %v", err)
	}
	if _, err := FitTwoMoment(1, 0); !errors.Is(err, ErrBadMoments) {
		t.Errorf("zero scv: %v", err)
	}
	if _, err := FitTwoMoment(math.NaN(), 1); !errors.Is(err, ErrBadMoments) {
		t.Errorf("NaN mean: %v", err)
	}
	if _, err := FitDistribution(nil); !errors.Is(err, ErrBadMoments) {
		t.Errorf("nil distribution: %v", err)
	}
	if _, err := FitNearDeterministic(1, 0); !errors.Is(err, ErrBadMoments) {
		t.Errorf("k=0: %v", err)
	}
}
