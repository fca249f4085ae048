package faulttree

import (
	"errors"
	"math"
	"testing"

	"repro/internal/dist"
)

func TestTreeMTTFMatchesClosedForms(t *testing.T) {
	// OR of two exponentials = series system: MTTF = 1/(λ1+λ2).
	a := &Event{Name: "a", Lifetime: dist.MustExponential(1)}
	b := &Event{Name: "b", Lifetime: dist.MustExponential(2)}
	orTree, err := New(Or(Basic(a), Basic(b)))
	if err != nil {
		t.Fatal(err)
	}
	mttf, err := orTree.MTTF()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mttf-1.0/3) > 1e-6 {
		t.Errorf("series MTTF = %g, want 1/3", mttf)
	}
	// AND of two identical exponentials = parallel: MTTF = 3/(2λ).
	c := &Event{Name: "c", Lifetime: dist.MustExponential(1)}
	d := &Event{Name: "d", Lifetime: dist.MustExponential(1)}
	andTree, err := New(And(Basic(c), Basic(d)))
	if err != nil {
		t.Fatal(err)
	}
	mttf, err = andTree.MTTF()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mttf-1.5) > 1e-6 {
		t.Errorf("parallel MTTF = %g, want 1.5", mttf)
	}
}

func TestTreeMTTFRequiresLifetimes(t *testing.T) {
	a := &Event{Name: "a", Lifetime: dist.MustExponential(1)}
	b := &Event{Name: "static", Prob: 0.5}
	tr, err := New(And(Basic(a), Basic(b)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.MTTF(); !errors.Is(err, ErrNoLifetime) {
		t.Errorf("want ErrNoLifetime, got %v", err)
	}
}

func TestTreeMTTFInfiniteDetected(t *testing.T) {
	// NOT gate makes the top event probability approach 0 < p < 1:
	// survival does not vanish, MTTF infinite.
	a := &Event{Name: "a", Lifetime: dist.MustExponential(1)}
	b := &Event{Name: "b", Lifetime: dist.MustExponential(1)}
	tr, err := New(And(Basic(a), Not(Basic(b))))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.MTTF(); err == nil {
		t.Error("infinite MTTF not detected")
	}
}
