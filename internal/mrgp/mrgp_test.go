package mrgp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/markov"
)

func relErr(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Abs(b); m > 1e-300 {
		return d / m
	}
	return d
}

func TestPureExponentialMatchesCTMC(t *testing.T) {
	lam, mu := 0.25, 1.75
	p := New()
	if err := p.AddExp("up", "down", lam); err != nil {
		t.Fatal(err)
	}
	if err := p.AddExp("down", "up", mu); err != nil {
		t.Fatal(err)
	}
	pi, err := p.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	c := markov.NewCTMC()
	_ = c.AddRate("up", "down", lam)
	_ = c.AddRate("down", "up", mu)
	want, err := c.SteadyStateMap()
	if err != nil {
		t.Fatal(err)
	}
	if relErr(pi["up"], want["up"]) > 1e-12 {
		t.Errorf("pi[up] = %g, want %g", pi["up"], want["up"])
	}
}

func TestDeterministicCycle(t *testing.T) {
	// A (det 3) → B (det 1) → A: π_A = 3/4.
	p := New()
	if err := p.SetDeterministic("A", "B", 3); err != nil {
		t.Fatal(err)
	}
	if err := p.SetDeterministic("B", "A", 1); err != nil {
		t.Fatal(err)
	}
	pi, err := p.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	if relErr(pi["A"], 0.75) > 1e-12 {
		t.Errorf("pi[A] = %g, want 0.75", pi["A"])
	}
}

// rejuvProcess builds the classic rejuvenation MRGP: "up" races an
// exponential failure (rate lam) against a deterministic rejuvenation
// timeout tau; failures repair at muF, rejuvenation completes at muR.
func rejuvProcess(t *testing.T, lam, tau, muF, muR float64) *Process {
	t.Helper()
	p := New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(p.AddExp("up", "failed", lam))
	must(p.SetDeterministic("up", "rejuv", tau))
	must(p.AddExp("failed", "up", muF))
	must(p.AddExp("rejuv", "up", muR))
	return p
}

// simulateRejuv estimates long-run state fractions of the rejuvenation
// process by direct Monte Carlo, as an independent oracle.
func simulateRejuv(lam, tau, muF, muR, horizon float64, rng *rand.Rand) map[string]float64 {
	occ := map[string]float64{}
	state := "up"
	now := 0.0
	for now < horizon {
		var dwell float64
		var next string
		switch state {
		case "up":
			x := rng.ExpFloat64() / lam
			if x < tau {
				dwell, next = x, "failed"
			} else {
				dwell, next = tau, "rejuv"
			}
		case "failed":
			dwell, next = rng.ExpFloat64()/muF, "up"
		default: // rejuv
			dwell, next = rng.ExpFloat64()/muR, "up"
		}
		if now+dwell > horizon {
			dwell = horizon - now
		}
		occ[state] += dwell
		now += dwell
		state = next
	}
	for k := range occ {
		occ[k] /= horizon
	}
	return occ
}

func TestRejuvenationSteadyStateVsSimulation(t *testing.T) {
	lam, tau, muF, muR := 0.05, 10.0, 0.2, 2.0
	p := rejuvProcess(t, lam, tau, muF, muR)
	pi, err := p.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(101))
	sim := simulateRejuv(lam, tau, muF, muR, 2_000_000, rng)
	for _, state := range []string{"up", "failed", "rejuv"} {
		if math.Abs(pi[state]-sim[state]) > 0.004 {
			t.Errorf("pi[%s] = %g, simulation %g", state, pi[state], sim[state])
		}
	}
	// Rejuvenation keeps unplanned downtime below the no-rejuvenation case.
	noRejuv := markov.NewCTMC()
	_ = noRejuv.AddRate("up", "failed", lam)
	_ = noRejuv.AddRate("failed", "up", muF)
	base, err := noRejuv.SteadyStateMap()
	if err != nil {
		t.Fatal(err)
	}
	if pi["failed"] >= base["failed"] {
		t.Errorf("unplanned downtime with rejuvenation %g should be below %g",
			pi["failed"], base["failed"])
	}
}

func TestValidation(t *testing.T) {
	p := New()
	if err := p.AddExp("a", "a", 1); err == nil {
		t.Error("self exp accepted")
	}
	if err := p.AddExp("a", "b", 0); err == nil {
		t.Error("zero rate accepted")
	}
	if err := p.SetDeterministic("a", "b", -1); err == nil {
		t.Error("negative delay accepted")
	}
	if err := p.SetDeterministic("a", "b", 1); err != nil {
		t.Fatal(err)
	}
	if err := p.SetDeterministic("a", "c", 2); err == nil {
		t.Error("second timeout on state accepted")
	}
	empty := New()
	if _, err := empty.SteadyState(); err == nil {
		t.Error("empty process accepted")
	}
	// Absorbing state → steady state undefined.
	abs := New()
	_ = abs.AddExp("a", "b", 1)
	if _, err := abs.SteadyState(); err == nil {
		t.Error("absorbing state accepted")
	}
}
