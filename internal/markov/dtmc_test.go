package markov

import (
	"math"
	"strconv"
	"testing"
)

func TestDTMCSteadyState(t *testing.T) {
	d := NewDTMC()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(d.AddProb("sunny", "sunny", 0.9))
	must(d.AddProb("sunny", "rainy", 0.1))
	must(d.AddProb("rainy", "sunny", 0.5))
	must(d.AddProb("rainy", "rainy", 0.5))
	pi, err := d.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	is, _ := d.Index("sunny")
	if relErr(pi[is], 5.0/6) > 1e-12 {
		t.Errorf("pi[sunny] = %g, want 5/6", pi[is])
	}
}

func TestDTMCRowSumValidation(t *testing.T) {
	d := NewDTMC()
	_ = d.AddProb("a", "b", 0.5)
	if _, err := d.Matrix(); err == nil {
		t.Error("row sum 0.5 accepted")
	}
	if err := d.AddProb("a", "b", 1.5); err == nil {
		t.Error("probability > 1 accepted")
	}
}

func TestDTMCAbsorptionGambler(t *testing.T) {
	// Gambler's ruin on {0..4}, fair coin, start at 2:
	// P(reach 4 before 0) = 2/4 = 0.5. Start at 1 → 0.25.
	d := NewDTMC()
	for i := 1; i <= 3; i++ {
		s := strconv.Itoa(i)
		lo := strconv.Itoa(i - 1)
		hi := strconv.Itoa(i + 1)
		_ = d.AddProb(s, lo, 0.5)
		_ = d.AddProb(s, hi, 0.5)
	}
	_ = d.AddProb("0", "0", 1)
	_ = d.AddProb("4", "4", 1)
	probs, err := d.AbsorptionProbs("2", "0", "4")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(probs["4"]-0.5) > 1e-12 {
		t.Errorf("P(win from 2) = %g, want 0.5", probs["4"])
	}
	probs1, _ := d.AbsorptionProbs("1", "0", "4")
	if math.Abs(probs1["4"]-0.25) > 1e-12 {
		t.Errorf("P(win from 1) = %g, want 0.25", probs1["4"])
	}
	// Starting absorbed.
	pa, _ := d.AbsorptionProbs("0", "0", "4")
	if pa["0"] != 1 || pa["4"] != 0 {
		t.Errorf("absorbed start: %v", pa)
	}
}

func TestDTMCLargePowerIteration(t *testing.T) {
	// Ring chain with 700 states and slight bias; uniformish stationary.
	d := NewDTMC()
	n := 700
	name := func(i int) string { return "r" + strconv.Itoa(i) }
	for i := 0; i < n; i++ {
		_ = d.AddProb(name(i), name((i+1)%n), 0.6)
		_ = d.AddProb(name(i), name((i+n-1)%n), 0.4)
	}
	pi, err := d.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pi {
		if math.Abs(p-1.0/float64(n)) > 1e-6 {
			t.Fatalf("pi[%d] = %g, want uniform %g", i, p, 1.0/float64(n))
		}
	}
}
