package markov

import (
	"math"
	"testing"
)

func TestReliabilityCurveParallelClosedForm(t *testing.T) {
	// Two-unit parallel without repair: R(t) = 2e^{-λt} - e^{-2λt}.
	lam := 0.5
	c := NewCTMC()
	_ = c.AddRate("2", "1", 2*lam)
	_ = c.AddRate("1", "0", lam)
	times := []float64{0.1, 0.5, 1, 3, 8}
	curve, err := c.ReliabilityCurve(times, "2", "0")
	if err != nil {
		t.Fatal(err)
	}
	for k, tt := range times {
		want := 2*math.Exp(-lam*tt) - math.Exp(-2*lam*tt)
		if math.Abs(curve[k]-want) > 1e-9 {
			t.Errorf("R(%g) = %g, want %g", tt, curve[k], want)
		}
	}
}

func TestReliabilityWithRepairExceedsWithout(t *testing.T) {
	// Repair of the degraded state extends mission reliability even though
	// availability chains would hide the first failure.
	lam, mu := 0.3, 4.0
	norep := NewCTMC()
	_ = norep.AddRate("2", "1", 2*lam)
	_ = norep.AddRate("1", "0", lam)
	rep := NewCTMC()
	_ = rep.AddRate("2", "1", 2*lam)
	_ = rep.AddRate("1", "0", lam)
	_ = rep.AddRate("1", "2", mu)
	// Extra: the full availability chain even repairs from "0"; the
	// reliability computation must ignore that path.
	_ = rep.AddRate("0", "1", mu)
	tt := []float64{2}
	r1, err := norep.ReliabilityCurve(tt, "2", "0")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := rep.ReliabilityCurve(tt, "2", "0")
	if err != nil {
		t.Fatal(err)
	}
	if r2[0] <= r1[0] {
		t.Errorf("repair should raise R(t): %g vs %g", r2[0], r1[0])
	}
	// R(t) must be monotone decreasing despite the repair-from-0 edge in
	// the source chain (proof the absorbing copy is used).
	curve, err := rep.ReliabilityCurve([]float64{1, 5, 20, 100}, "2", "0")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] > curve[i-1]+1e-12 {
			t.Errorf("R not monotone: %v", curve)
		}
	}
}

func TestReliabilityMatchesMTTFIntegral(t *testing.T) {
	// ∫R(t)dt = MTTF: check with a coarse trapezoid on a fine grid.
	lam := 1.0
	c := NewCTMC()
	_ = c.AddRate("2", "1", 2*lam)
	_ = c.AddRate("1", "0", lam)
	mttf, err := c.MTTF("2", "0")
	if err != nil {
		t.Fatal(err)
	}
	const n = 4000
	h := 20.0 / n
	times := make([]float64, n+1)
	for i := range times {
		times[i] = float64(i) * h
	}
	curve, err := c.ReliabilityCurve(times, "2", "0")
	if err != nil {
		t.Fatal(err)
	}
	var integral float64
	for i := 1; i < len(curve); i++ {
		integral += (curve[i] + curve[i-1]) / 2 * h
	}
	if math.Abs(integral-mttf) > 1e-3 {
		t.Errorf("∫R = %g, MTTF = %g", integral, mttf)
	}
}

func TestReliabilityValidation(t *testing.T) {
	c := twoState(t, 1, 1)
	if _, err := c.ReliabilityCurve([]float64{1}, "up"); err == nil {
		t.Error("no failure states accepted")
	}
	if _, err := c.ReliabilityCurve([]float64{1}, "ghost", "down"); err == nil {
		t.Error("unknown initial accepted")
	}
}
