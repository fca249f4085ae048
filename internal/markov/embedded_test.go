package markov

import (
	"math"
	"testing"
)

func TestEmbeddedDTMCJumpProbabilities(t *testing.T) {
	c := NewCTMC()
	_ = c.AddRate("s", "a", 2)
	_ = c.AddRate("s", "b", 3)
	_ = c.AddRate("a", "s", 1)
	_ = c.AddRate("b", "s", 1)
	d, err := c.EmbeddedDTMC()
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	is, _ := d.Index("s")
	ia, _ := d.Index("a")
	ib, _ := d.Index("b")
	if math.Abs(p.At(is, ia)-0.4) > 1e-15 {
		t.Errorf("P(s→a) = %g, want 0.4", p.At(is, ia))
	}
	if math.Abs(p.At(is, ib)-0.6) > 1e-15 {
		t.Errorf("P(s→b) = %g, want 0.6", p.At(is, ib))
	}
}

func TestEmbeddedDTMCAbsorbingSelfLoop(t *testing.T) {
	c := NewCTMC()
	_ = c.AddRate("s", "end", 1)
	d, err := c.EmbeddedDTMC()
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	ie, _ := d.Index("end")
	if p.At(ie, ie) != 1 {
		t.Errorf("absorbing self-loop = %g", p.At(ie, ie))
	}
}

func TestExpectedVisitsGeometric(t *testing.T) {
	// s → a (prob 1); a → s (0.5) or a → done (0.5). Visits to a form a
	// geometric sequence: E[visits to a] = 2, E[visits to s] = 2
	// (including the initial visit).
	d := NewDTMC()
	_ = d.AddProb("s", "a", 1)
	_ = d.AddProb("a", "s", 0.5)
	_ = d.AddProb("a", "done", 0.5)
	_ = d.AddProb("done", "done", 1)
	visits, err := d.ExpectedVisits("s", "done")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(visits["s"]-2) > 1e-12 {
		t.Errorf("visits(s) = %g, want 2", visits["s"])
	}
	if math.Abs(visits["a"]-2) > 1e-12 {
		t.Errorf("visits(a) = %g, want 2", visits["a"])
	}
	if steps := visits["s"] + visits["a"]; math.Abs(steps-4) > 1e-12 {
		t.Errorf("steps = %g, want 4", steps)
	}
}

func TestExpectedVisitsConsistentWithMTTA(t *testing.T) {
	// CTMC MTTA = Σ_i visits_i · mean-sojourn_i via the embedded chain.
	c := NewCTMC()
	_ = c.AddRate("2", "1", 2)
	_ = c.AddRate("1", "0", 1)
	_ = c.AddRate("1", "2", 5)
	visits, err := c.ExpectedVisits("2", "0")
	if err != nil {
		t.Fatal(err)
	}
	// Mean sojourns: state 2: 1/2, state 1: 1/6.
	reconstructed := visits["2"]*(1.0/2) + visits["1"]*(1.0/6)
	mtta, err := c.MTTF("2", "0")
	if err != nil {
		t.Fatal(err)
	}
	if relErr(reconstructed, mtta) > 1e-12 {
		t.Errorf("visit-based MTTA %g vs direct %g", reconstructed, mtta)
	}
}

func TestExpectedVisitsFromAbsorbing(t *testing.T) {
	d := NewDTMC()
	_ = d.AddProb("s", "end", 1)
	_ = d.AddProb("end", "end", 1)
	visits, err := d.ExpectedVisits("end", "end")
	if err != nil {
		t.Fatal(err)
	}
	if len(visits) != 0 {
		t.Errorf("visits from absorbing start: %v", visits)
	}
}
