package bdd

import (
	"math"
	"testing"
	"testing/quick"
)

func mustVar(t *testing.T, m *Manager, i int) Ref {
	t.Helper()
	v, err := m.Var(i)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestBasicConnectives(t *testing.T) {
	m := New(2)
	a, b := mustVar(t, m, 0), mustVar(t, m, 1)
	tests := []struct {
		name string
		f    Ref
		tt   [4]bool // truth table over (a,b) = 00,01,10,11
	}{
		{name: "and", f: m.And(a, b), tt: [4]bool{false, false, false, true}},
		{name: "or", f: m.Or(a, b), tt: [4]bool{false, true, true, true}},
		{name: "xor", f: m.ITE(a, m.Not(b), b), tt: [4]bool{false, true, true, false}},
		{name: "not a", f: m.Not(a), tt: [4]bool{true, true, false, false}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			for idx := 0; idx < 4; idx++ {
				av, bv := idx&2 != 0, idx&1 != 0
				got := evalBDD(m, tt.f, []bool{av, bv})
				if got != tt.tt[idx] {
					t.Errorf("f(%v,%v) = %v, want %v", av, bv, got, tt.tt[idx])
				}
			}
		})
	}
}

// evalBDD evaluates f under a full assignment.
func evalBDD(m *Manager, f Ref, assign []bool) bool {
	r := f
	for {
		switch r {
		case True:
			return true
		case False:
			return false
		}
		n := m.nodes[r]
		if assign[n.level] {
			r = n.high
		} else {
			r = n.low
		}
	}
}

func TestCanonicity(t *testing.T) {
	m := New(3)
	a, b, c := mustVar(t, m, 0), mustVar(t, m, 1), mustVar(t, m, 2)
	// (a∧b)∨c  ==  ¬(¬c∧¬(a∧b))  must share the same node.
	f1 := m.Or(m.And(a, b), c)
	f2 := m.Not(m.And(m.Not(c), m.Not(m.And(a, b))))
	if f1 != f2 {
		t.Fatalf("equivalent functions got different refs %d vs %d", f1, f2)
	}
	// Idempotence: a∧a = a.
	if m.And(a, a) != a {
		t.Error("a∧a != a")
	}
	if m.Or(a, m.Not(a)) != True {
		t.Error("a∨¬a != True")
	}
	if m.And(a, m.Not(a)) != False {
		t.Error("a∧¬a != False")
	}
}

func TestProbSeriesParallel(t *testing.T) {
	m := New(3)
	a, b, c := mustVar(t, m, 0), mustVar(t, m, 1), mustVar(t, m, 2)
	p := []float64{0.9, 0.8, 0.7}

	series := m.AndN(a, b, c)
	got, err := m.Prob(series, p)
	if err != nil {
		t.Fatal(err)
	}
	if want := 0.9 * 0.8 * 0.7; math.Abs(got-want) > 1e-15 {
		t.Errorf("series prob = %g, want %g", got, want)
	}

	parallel := m.OrN(a, b, c)
	got, err = m.Prob(parallel, p)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 - 0.1*0.2*0.3; math.Abs(got-want) > 1e-15 {
		t.Errorf("parallel prob = %g, want %g", got, want)
	}
}

func TestProbRepeatedEvent(t *testing.T) {
	// f = (a∧b) ∨ (a∧c): naive independence over gates double-counts a.
	m := New(3)
	a, b, c := mustVar(t, m, 0), mustVar(t, m, 1), mustVar(t, m, 2)
	f := m.Or(m.And(a, b), m.And(a, c))
	p := []float64{0.5, 0.5, 0.5}
	got, err := m.Prob(f, p)
	if err != nil {
		t.Fatal(err)
	}
	// Exact: P(a)·P(b∨c) = 0.5 · 0.75.
	if want := 0.375; math.Abs(got-want) > 1e-15 {
		t.Errorf("prob = %g, want %g", got, want)
	}
}

// TestProbMemoIsPerCall checks that Prob's scratch values and cached pass
// order, kept on the Manager, never carry one call's values into the
// next: not between calls with different probabilities, and not after the
// node table grows.
func TestProbMemoIsPerCall(t *testing.T) {
	m := New(16)
	a, b, c := mustVar(t, m, 0), mustVar(t, m, 1), mustVar(t, m, 2)
	f := m.And(a, m.Or(b, c))
	check := func(pa, pb, pc float64) {
		t.Helper()
		p := make([]float64, 16)
		p[0], p[1], p[2] = pa, pb, pc
		got, err := m.Prob(f, p)
		if err != nil {
			t.Fatal(err)
		}
		if want := pa * (1 - (1-pb)*(1-pc)); math.Abs(got-want) > 1e-15 {
			t.Fatalf("Prob(%g, %g, %g) = %g, want %g", pa, pb, pc, got, want)
		}
	}
	check(0.9, 0.8, 0.7)
	check(0.5, 0.4, 0.3)
	size := m.Size()
	g := False
	for i := 3; i < 16; i++ {
		for j := i + 1; j < 16; j++ {
			g = m.Or(g, m.And(mustVar(t, m, i), mustVar(t, m, j)))
		}
	}
	if m.Size() <= 2*size {
		t.Fatalf("node table grew from %d to only %d", size, m.Size())
	}
	check(0.2, 0.6, 0.1)
	check(0.3, 0.3, 0.3)
	check(0.9, 0.8, 0.7)
}

func TestKofN(t *testing.T) {
	m := New(4)
	vars := make([]Ref, 4)
	for i := range vars {
		vars[i] = mustVar(t, m, i)
	}
	p := []float64{0.9, 0.9, 0.9, 0.9}
	tests := []struct {
		k    int
		want float64
	}{
		{k: 0, want: 1},
		{k: 1, want: 1 - math.Pow(0.1, 4)},
		{k: 4, want: math.Pow(0.9, 4)},
	}
	for _, tt := range tests {
		f, err := m.KofN(tt.k, vars)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Prob(f, p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("%d-of-4 prob = %g, want %g", tt.k, got, tt.want)
		}
	}
	// 2-of-4 binomial: sum_{j>=2} C(4,j) 0.9^j 0.1^{4-j}.
	f, err := m.KofN(2, vars)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := m.Prob(f, p)
	want := 6*math.Pow(0.9, 2)*math.Pow(0.1, 2) + 4*math.Pow(0.9, 3)*0.1 + math.Pow(0.9, 4)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("2-of-4 prob = %g, want %g", got, want)
	}
	if _, err := m.KofN(5, vars); err == nil {
		t.Error("want error for k > n")
	}
}

func TestRestrict(t *testing.T) {
	m := New(2)
	a, b := mustVar(t, m, 0), mustVar(t, m, 1)
	f := m.And(a, b)
	r1, err := m.Restrict(f, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != b {
		t.Errorf("(a∧b)|a=1 should be b")
	}
	r0, err := m.Restrict(f, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if r0 != False {
		t.Errorf("(a∧b)|a=0 should be False")
	}
}

func TestBirnbaumSeries(t *testing.T) {
	// Series system of 2: dR/dp1 = p2.
	m := New(2)
	a, b := mustVar(t, m, 0), mustVar(t, m, 1)
	f := m.And(a, b)
	p := []float64{0.9, 0.8}
	got, err := m.Birnbaum(f, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.8) > 1e-15 {
		t.Errorf("birnbaum = %g, want 0.8", got)
	}
}

func TestMinimalCutSetsBridge(t *testing.T) {
	// Failure function of the classic bridge network (components 0..4,
	// variable true = component FAILED). Min cuts: {0,1}, {3,4},
	// {0,2,4}, {1,2,3}.
	m := New(5)
	v := make([]Ref, 5)
	for i := range v {
		v[i] = mustVar(t, m, i)
	}
	f := m.OrN(
		m.And(v[0], v[1]),
		m.And(v[3], v[4]),
		m.AndN(v[0], v[2], v[4]),
		m.AndN(v[1], v[2], v[3]),
	)
	cuts := m.MinimalCutSets(f)
	want := []CutSet{{0, 1}, {3, 4}, {0, 2, 4}, {1, 2, 3}}
	if len(cuts) != len(want) {
		t.Fatalf("got %d cut sets %v, want %d", len(cuts), cuts, len(want))
	}
	for i := range want {
		if len(cuts[i]) != len(want[i]) {
			t.Fatalf("cut %d = %v, want %v", i, cuts[i], want[i])
		}
		for j := range want[i] {
			if cuts[i][j] != want[i][j] {
				t.Fatalf("cut %d = %v, want %v", i, cuts[i], want[i])
			}
		}
	}
}

func TestMinimalCutSetsSubsumption(t *testing.T) {
	// f = a ∨ (a∧b): the only minimal cut is {a}.
	m := New(2)
	a, b := mustVar(t, m, 0), mustVar(t, m, 1)
	f := m.Or(a, m.And(a, b))
	cuts := m.MinimalCutSets(f)
	if len(cuts) != 1 || len(cuts[0]) != 1 || cuts[0][0] != 0 {
		t.Fatalf("cuts = %v, want [[0]]", cuts)
	}
}

func TestMinimize(t *testing.T) {
	in := []CutSet{{0, 1, 2}, {0, 1}, {2}, {0, 2}}
	out := Minimize(in)
	want := []CutSet{{2}, {0, 1}}
	if len(out) != len(want) {
		t.Fatalf("minimize = %v, want %v", out, want)
	}
}

func TestSatCount(t *testing.T) {
	m := New(3)
	a, b := mustVar(t, m, 0), mustVar(t, m, 1)
	f := m.And(a, b) // satisfied by a=b=1, c free: 2 assignments.
	if got := m.SatCount(f); got != 2 {
		t.Errorf("satcount = %g, want 2", got)
	}
	if got := m.SatCount(True); got != 8 {
		t.Errorf("satcount(True) = %g, want 8", got)
	}
	if got := m.SatCount(False); got != 0 {
		t.Errorf("satcount(False) = %g, want 0", got)
	}
}

func TestProbMatchesTruthTableProperty(t *testing.T) {
	// Property: for random 4-var functions built from random connective
	// trees, Prob with p=0.5 equals SatCount/16.
	f := func(ops [7]uint8, leaves [8]uint8) bool {
		m := New(4)
		build := func() Ref {
			stack := make([]Ref, 0, 8)
			for _, l := range leaves {
				v, _ := m.Var(int(l) % 4)
				if l%2 == 0 {
					v = m.Not(v)
				}
				stack = append(stack, v)
			}
			for _, op := range ops {
				if len(stack) < 2 {
					break
				}
				a := stack[len(stack)-1]
				b := stack[len(stack)-2]
				stack = stack[:len(stack)-2]
				var r Ref
				switch op % 3 {
				case 0:
					r = m.And(a, b)
				case 1:
					r = m.Or(a, b)
				default:
					r = m.ITE(a, m.Not(b), b)
				}
				stack = append(stack, r)
			}
			return stack[0]
		}
		g := build()
		p, err := m.Prob(g, []float64{0.5, 0.5, 0.5, 0.5})
		if err != nil {
			return false
		}
		return math.Abs(p-m.SatCount(g)/16) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeSharing(t *testing.T) {
	m := New(20)
	vars := make([]Ref, 20)
	for i := range vars {
		vars[i] = mustVar(t, m, i)
	}
	f, err := m.KofN(10, vars)
	if err != nil {
		t.Fatal(err)
	}
	// k-of-n BDD size is O(k(n-k)) with sharing, far below 2^20.
	if n := m.NodeCount(f); n > 500 {
		t.Errorf("10-of-20 BDD has %d nodes; sharing broken", n)
	}
}
