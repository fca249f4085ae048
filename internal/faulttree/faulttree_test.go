package faulttree

import (
	"errors"
	"math"
	"sort"
	"testing"

	"repro/internal/dist"
)

func ev(name string, p float64) *Event { return &Event{Name: name, Prob: p} }

func relErr(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Abs(b); m > 1e-300 {
		return d / m
	}
	return d
}

func TestAndOrGates(t *testing.T) {
	a, b, c := ev("a", 0.1), ev("b", 0.2), ev("c", 0.3)
	tests := []struct {
		name string
		top  *Node
		want float64
	}{
		{name: "and", top: And(Basic(a), Basic(b)), want: 0.02},
		{name: "or", top: Or(Basic(a), Basic(b)), want: 1 - 0.9*0.8},
		{name: "or3", top: Or(Basic(a), Basic(b), Basic(c)), want: 1 - 0.9*0.8*0.7},
		{name: "nested", top: Or(And(Basic(a), Basic(b)), Basic(c)), want: 1 - (1-0.02)*0.7},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tr, err := New(tt.top)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tr.TopStatic()
			if err != nil {
				t.Fatal(err)
			}
			if relErr(got, tt.want) > 1e-12 {
				t.Errorf("top = %g, want %g", got, tt.want)
			}
		})
	}
}

func TestRepeatedEventExactness(t *testing.T) {
	// TOP = (a∧b) ∨ (a∧c), a repeated. Exact P = p_a(p_b + p_c - p_b p_c).
	a, b, c := ev("a", 0.3), ev("b", 0.4), ev("c", 0.5)
	tr, err := New(Or(And(Basic(a), Basic(b)), And(Basic(a), Basic(c))))
	if err != nil {
		t.Fatal(err)
	}
	got, err := tr.TopStatic()
	if err != nil {
		t.Fatal(err)
	}
	want := 0.3 * (0.4 + 0.5 - 0.2)
	if relErr(got, want) > 1e-12 {
		t.Errorf("top = %g, want %g", got, want)
	}
	if len(tr.Events()) != 3 {
		t.Errorf("events = %d, want 3", len(tr.Events()))
	}
}

func TestKofNGate(t *testing.T) {
	events := []*Event{ev("a", 0.1), ev("b", 0.1), ev("c", 0.1)}
	tr, err := New(AtLeast(2, Basic(events[0]), Basic(events[1]), Basic(events[2])))
	if err != nil {
		t.Fatal(err)
	}
	got, err := tr.TopStatic()
	if err != nil {
		t.Fatal(err)
	}
	want := 3*0.01*0.9 + 0.001
	if relErr(got, want) > 1e-12 {
		t.Errorf("2oo3 = %g, want %g", got, want)
	}
}

func TestNotGateNonCoherent(t *testing.T) {
	a, b := ev("a", 0.3), ev("b", 0.6)
	tr, err := New(And(Basic(a), Not(Basic(b))))
	if err != nil {
		t.Fatal(err)
	}
	if tr.coherent {
		t.Error("tree with NOT should be non-coherent")
	}
	got, err := tr.TopStatic()
	if err != nil {
		t.Fatal(err)
	}
	if want := 0.3 * 0.4; relErr(got, want) > 1e-12 {
		t.Errorf("top = %g, want %g", got, want)
	}
	if _, err := tr.MOCUS(0); !errors.Is(err, ErrNonCoherent) {
		t.Errorf("MOCUS on non-coherent: got %v", err)
	}
	if _, err := tr.RareEventBound(); !errors.Is(err, ErrNonCoherent) {
		t.Errorf("RareEventBound on non-coherent: got %v", err)
	}
}

func TestMinimalCutSetsMatchMOCUS(t *testing.T) {
	// Redundant pump system with shared valve.
	valve := ev("valve", 0.01)
	p1, p2 := ev("pump1", 0.1), ev("pump2", 0.1)
	power := ev("power", 0.005)
	top := Or(
		Basic(power),
		Basic(valve),
		And(Basic(p1), Basic(p2)),
	)
	tr, err := New(top)
	if err != nil {
		t.Fatal(err)
	}
	bddCuts := tr.MinimalCutSets()
	mocusCuts, err := tr.MOCUS(0)
	if err != nil {
		t.Fatal(err)
	}
	norm := func(cc [][]string) []string {
		keys := make([]string, len(cc))
		for i, c := range cc {
			s := append([]string(nil), c...)
			sort.Strings(s)
			keys[i] = ""
			for _, x := range s {
				keys[i] += x + ","
			}
		}
		sort.Strings(keys)
		return keys
	}
	a, b := norm(bddCuts), norm(mocusCuts)
	if len(a) != 3 {
		t.Fatalf("cut sets: %v", bddCuts)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("BDD cuts %v != MOCUS cuts %v", bddCuts, mocusCuts)
		}
	}
}

func TestMOCUSKofN(t *testing.T) {
	events := []*Event{ev("a", 0.1), ev("b", 0.1), ev("c", 0.1)}
	tr, err := New(AtLeast(2, Basic(events[0]), Basic(events[1]), Basic(events[2])))
	if err != nil {
		t.Fatal(err)
	}
	cuts, err := tr.MOCUS(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != 3 {
		t.Fatalf("2oo3 MOCUS cuts = %v, want 3 pairs", cuts)
	}
	for _, c := range cuts {
		if len(c) != 2 {
			t.Fatalf("cut %v should have 2 events", c)
		}
	}
}

func TestRareEventBoundIsUpperBound(t *testing.T) {
	a, b, c := ev("a", 0.2), ev("b", 0.3), ev("c", 0.25)
	tr, err := New(Or(And(Basic(a), Basic(b)), And(Basic(a), Basic(c)), Basic(b)))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := tr.TopStatic()
	if err != nil {
		t.Fatal(err)
	}
	bound, err := tr.RareEventBound()
	if err != nil {
		t.Fatal(err)
	}
	if bound < exact-1e-12 {
		t.Errorf("rare-event bound %g below exact %g", bound, exact)
	}
}

func TestInclusionExclusionConverges(t *testing.T) {
	a, b, c, d := ev("a", 0.1), ev("b", 0.15), ev("c", 0.2), ev("d", 0.12)
	tr, err := New(Or(
		And(Basic(a), Basic(b)),
		And(Basic(b), Basic(c)),
		And(Basic(c), Basic(d)),
		And(Basic(a), Basic(d)),
	))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := tr.TopStatic()
	if err != nil {
		t.Fatal(err)
	}
	full, err := tr.InclusionExclusion(0)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(full, exact) > 1e-10 {
		t.Errorf("full IE %g != exact %g", full, exact)
	}
	upper, err := tr.InclusionExclusion(1)
	if err != nil {
		t.Fatal(err)
	}
	lower, err := tr.InclusionExclusion(2)
	if err != nil {
		t.Fatal(err)
	}
	if upper < exact-1e-12 || lower > exact+1e-12 {
		t.Errorf("Bonferroni bounds [%g, %g] do not bracket %g", lower, upper, exact)
	}
}

func TestTopAtWithLifetimes(t *testing.T) {
	a := &Event{Name: "a", Lifetime: dist.MustExponential(1)}
	b := &Event{Name: "b", Lifetime: dist.MustExponential(2)}
	tr, err := New(And(Basic(a), Basic(b)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := tr.TopAt(0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := (1 - math.Exp(-0.5)) * (1 - math.Exp(-1.0))
	if relErr(got, want) > 1e-12 {
		t.Errorf("top(0.5) = %g, want %g", got, want)
	}
	noLife := ev("static", 0.5)
	tr2, err := New(And(Basic(a), Basic(noLife)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr2.TopAt(1); !errors.Is(err, ErrNoLifetime) {
		t.Errorf("want ErrNoLifetime, got %v", err)
	}
}

func TestImportanceRanking(t *testing.T) {
	// Single point of failure should dominate importance.
	spof := ev("spof", 0.01)
	r1, r2 := ev("r1", 0.1), ev("r2", 0.1)
	tr, err := New(Or(Basic(spof), And(Basic(r1), Basic(r2))))
	if err != nil {
		t.Fatal(err)
	}
	imp, err := tr.Importance()
	if err != nil {
		t.Fatal(err)
	}
	if imp[0].Event != "spof" {
		t.Errorf("highest Birnbaum is %q, want spof", imp[0].Event)
	}
	for _, im := range imp {
		if im.FussellVesely < 0 || im.FussellVesely > 1 {
			t.Errorf("FV(%s) = %g outside [0,1]", im.Event, im.FussellVesely)
		}
		if im.Criticality < 0 || im.Criticality > 1+1e-12 {
			t.Errorf("criticality(%s) = %g outside [0,1]", im.Event, im.Criticality)
		}
	}
}

func TestConstructionErrors(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil root")
	}
	if _, err := New(And()); err == nil {
		t.Error("empty gate")
	}
	if _, err := New(Basic(nil)); err == nil {
		t.Error("nil event")
	}
	if _, err := New(AtLeast(4, Basic(ev("a", 0.1)))); err == nil {
		t.Error("k out of range")
	}
	d1, d2 := ev("dup", 0.1), ev("dup", 0.2)
	if _, err := New(And(Basic(d1), Basic(d2))); err == nil {
		t.Error("duplicate names")
	}
}

func TestLargeTreeBDDScales(t *testing.T) {
	// OR of 60 AND-pairs: 120 events, BDD linear.
	gates := make([]*Node, 60)
	for i := range gates {
		a := ev("a"+itoa(i), 0.001)
		b := ev("b"+itoa(i), 0.001)
		gates[i] = And(Basic(a), Basic(b))
	}
	tr, err := New(Or(gates...))
	if err != nil {
		t.Fatal(err)
	}
	if tr.BDDSize() > 500 {
		t.Errorf("BDD size %d, want linear growth", tr.BDDSize())
	}
	got, err := tr.TopStatic()
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - math.Pow(1-1e-6, 60)
	if relErr(got, want) > 1e-9 {
		t.Errorf("top = %g, want %g", got, want)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

// TestOrOfAndPairsCompilesLinearly holds the whole construction of an OR
// of k AND-pairs, every node its manager makes, to three per event:
// the n-ary fold descends only each new operand.
func TestOrOfAndPairsCompilesLinearly(t *testing.T) {
	for _, k := range []int{50, 200} {
		gates := make([]*Node, k)
		for i := range gates {
			gates[i] = And(Basic(ev("a"+itoa(i), 0.001)), Basic(ev("b"+itoa(i), 0.001)))
		}
		tr, err := New(Or(gates...))
		if err != nil {
			t.Fatal(err)
		}
		if got, n := tr.BDDStats().Nodes, 2*k; got > 3*n {
			t.Errorf("k=%d: construction made %d nodes, want at most %d", k, got, 3*n)
		}
	}
}
