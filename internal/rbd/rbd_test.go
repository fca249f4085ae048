package rbd

import (
	"errors"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/dist"
	"repro/internal/linalg"
)

func comp(t *testing.T, name string, failRate float64) *Component {
	t.Helper()
	return &Component{Name: name, Lifetime: dist.MustExponential(failRate)}
}

func repairable(t *testing.T, name string, failRate, repairRate float64) *Component {
	t.Helper()
	return &Component{
		Name:     name,
		Lifetime: dist.MustExponential(failRate),
		Repair:   dist.MustExponential(repairRate),
	}
}

func relErr(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Abs(b); m > 1e-300 {
		return d / m
	}
	return d
}

func TestSeriesReliability(t *testing.T) {
	// Series of exponential components: R(t) = e^{-(λ1+λ2+λ3)t}.
	a, b, c := comp(t, "a", 1), comp(t, "b", 2), comp(t, "c", 3)
	m, err := New(Series(Comp(a), Comp(b), Comp(c)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{0.1, 0.5, 1} {
		got, err := m.ReliabilityAt(tt)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Exp(-6 * tt)
		if relErr(got, want) > 1e-12 {
			t.Errorf("R(%g) = %g, want %g", tt, got, want)
		}
	}
	mttf, err := m.MTTF()
	if err != nil {
		t.Fatal(err)
	}
	if relErr(mttf, 1.0/6) > 1e-6 {
		t.Errorf("MTTF = %g, want 1/6", mttf)
	}
}

func TestParallelReliability(t *testing.T) {
	// Two-unit parallel, identical rate λ: MTTF = 3/(2λ).
	a, b := comp(t, "a", 2), comp(t, "b", 2)
	m, err := New(Parallel(Comp(a), Comp(b)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.ReliabilityAt(1)
	if err != nil {
		t.Fatal(err)
	}
	e := math.Exp(-2.0)
	want := 2*e - e*e
	if relErr(got, want) > 1e-12 {
		t.Errorf("R(1) = %g, want %g", got, want)
	}
	mttf, err := m.MTTF()
	if err != nil {
		t.Fatal(err)
	}
	if relErr(mttf, 3.0/4) > 1e-6 {
		t.Errorf("MTTF = %g, want 0.75", mttf)
	}
}

func TestKofNReliability(t *testing.T) {
	// 2-of-3 identical: R = 3R²-2R³, MTTF = 5/(6λ).
	cs := []*Block{Comp(comp(t, "a", 1)), Comp(comp(t, "b", 1)), Comp(comp(t, "c", 1))}
	m, err := New(KOfN(2, cs...))
	if err != nil {
		t.Fatal(err)
	}
	r := math.Exp(-0.7)
	got, err := m.ReliabilityAt(0.7)
	if err != nil {
		t.Fatal(err)
	}
	want := 3*r*r - 2*r*r*r
	if relErr(got, want) > 1e-12 {
		t.Errorf("R = %g, want %g", got, want)
	}
	mttf, err := m.MTTF()
	if err != nil {
		t.Fatal(err)
	}
	if relErr(mttf, 5.0/6) > 1e-6 {
		t.Errorf("MTTF = %g, want 5/6", mttf)
	}
}

func TestRepeatedComponent(t *testing.T) {
	// Shared power supply: (P and A) or (P and B). With P repeated,
	// R = P·(A+B-AB), NOT the gate-independent value.
	p, a, b := comp(t, "P", 1), comp(t, "A", 1), comp(t, "B", 1)
	m, err := New(Parallel(
		Series(Comp(p), Comp(a)),
		Series(Comp(p), Comp(b)),
	))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.comps) != 3 {
		t.Fatalf("components = %d, want 3 (P deduplicated)", len(m.comps))
	}
	at := 0.5
	r := math.Exp(-at)
	got, err := m.ReliabilityAt(at)
	if err != nil {
		t.Fatal(err)
	}
	want := r * (2*r - r*r)
	if relErr(got, want) > 1e-12 {
		t.Errorf("R = %g, want %g", got, want)
	}
}

func TestBridgeNetworkStructure(t *testing.T) {
	// Classic bridge as paths: {1,4},{2,5},{1,3,5},{2,3,4}.
	c1, c2, c3, c4, c5 := comp(t, "1", 1), comp(t, "2", 1), comp(t, "3", 1), comp(t, "4", 1), comp(t, "5", 1)
	m, err := New(Parallel(
		Series(Comp(c1), Comp(c4)),
		Series(Comp(c2), Comp(c5)),
		Series(Comp(c1), Comp(c3), Comp(c5)),
		Series(Comp(c2), Comp(c3), Comp(c4)),
	))
	if err != nil {
		t.Fatal(err)
	}
	// All components prob q: known bridge polynomial
	// R = 2q² + 2q³ - 5q⁴ + 2q⁵  (for identical q).
	q := 0.9
	got, err := m.Probability(func(*Component) float64 { return q })
	if err != nil {
		t.Fatal(err)
	}
	want := 2*math.Pow(q, 2) + 2*math.Pow(q, 3) - 5*math.Pow(q, 4) + 2*math.Pow(q, 5)
	if relErr(got, want) > 1e-12 {
		t.Errorf("bridge R = %.12g, want %.12g", got, want)
	}
	cuts := m.MinimalCutSets()
	if len(cuts) != 4 {
		t.Fatalf("cut sets = %v, want 4 sets", cuts)
	}
}

func TestSteadyStateAvailability(t *testing.T) {
	// Single component: A = μ/(λ+μ).
	c := repairable(t, "c", 0.001, 0.5)
	m, err := New(Comp(c))
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.SteadyStateAvailability()
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5 / 0.501
	if relErr(got, want) > 1e-12 {
		t.Errorf("A = %.12g, want %.12g", got, want)
	}
	// Parallel pair of the same spec: 1-(1-A)².
	c2 := repairable(t, "c2", 0.001, 0.5)
	mp, err := New(Parallel(Comp(c), Comp(c2)))
	if err != nil {
		t.Fatal(err)
	}
	got, err = mp.SteadyStateAvailability()
	if err != nil {
		t.Fatal(err)
	}
	wantP := 1 - (1-want)*(1-want)
	if relErr(got, wantP) > 1e-12 {
		t.Errorf("parallel A = %.12g, want %.12g", got, wantP)
	}
}

func TestAvailabilityRequiresRepair(t *testing.T) {
	m, err := New(Comp(comp(t, "norep", 1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.SteadyStateAvailability(); !errors.Is(err, ErrNoRepair) {
		t.Fatalf("want ErrNoRepair, got %v", err)
	}
}

func TestInstantAvailability(t *testing.T) {
	lam, mu := 0.2, 2.0
	c := repairable(t, "c", lam, mu)
	m, err := New(Comp(c))
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{0, 0.5, 3, 100} {
		got, err := m.InstantAvailability(tt)
		if err != nil {
			t.Fatal(err)
		}
		s := lam + mu
		want := mu/s + lam/s*math.Exp(-s*tt)
		if relErr(got, want) > 1e-12 {
			t.Errorf("A(%g) = %g, want %g", tt, got, want)
		}
	}
	// At t=0 availability is 1; as t→∞ it approaches steady state.
	a0, _ := m.InstantAvailability(0)
	if relErr(a0, 1) > 1e-12 {
		t.Errorf("A(0) = %g, want 1", a0)
	}
}

func TestImportanceSeriesWeakestLink(t *testing.T) {
	// In a series system the least reliable component has the highest
	// Birnbaum importance.
	weak := comp(t, "weak", 5)
	strong := comp(t, "strong", 0.1)
	m, err := New(Series(Comp(weak), Comp(strong)))
	if err != nil {
		t.Fatal(err)
	}
	imp, err := m.ImportanceAt(0.3)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Importance{}
	for _, im := range imp {
		byName[im.Component] = im
	}
	// Birnbaum of weak = R_strong > Birnbaum of strong = R_weak.
	if byName["weak"].Birnbaum <= byName["strong"].Birnbaum {
		t.Errorf("weak birnbaum %g should exceed strong %g",
			byName["weak"].Birnbaum, byName["strong"].Birnbaum)
	}
	wantWeak := math.Exp(-0.1 * 0.3)
	if relErr(byName["weak"].Birnbaum, wantWeak) > 1e-12 {
		t.Errorf("birnbaum(weak) = %g, want %g", byName["weak"].Birnbaum, wantWeak)
	}
}

func TestConstructionErrors(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("want error for nil root")
	}
	if _, err := New(Series()); err == nil {
		t.Error("want error for empty series")
	}
	if _, err := New(Comp(nil)); err == nil {
		t.Error("want error for nil component")
	}
	if _, err := New(KOfN(5, Comp(comp(t, "x", 1)))); err == nil {
		t.Error("want error for k > n")
	}
	dup1 := comp(t, "same", 1)
	dup2 := comp(t, "same", 2)
	if _, err := New(Series(Comp(dup1), Comp(dup2))); err == nil {
		t.Error("want error for duplicate names")
	}
	noLife := &Component{Name: "nolife"}
	if _, err := New(Comp(noLife)); err == nil {
		t.Error("want error for missing lifetime")
	}
}

func TestLargeSeriesParallelScales(t *testing.T) {
	// 100 components in series-of-parallel-pairs: BDD stays small.
	blocks := make([]*Block, 50)
	for i := 0; i < 50; i++ {
		a := comp(t, "a"+string(rune('0'+i/10))+string(rune('0'+i%10)), 1)
		b := comp(t, "b"+string(rune('0'+i/10))+string(rune('0'+i%10)), 1)
		blocks[i] = Parallel(Comp(a), Comp(b))
	}
	m, err := New(Series(blocks...))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.comps) != 100 {
		t.Fatalf("components = %d", len(m.comps))
	}
	if m.BDDSize() > 1000 {
		t.Errorf("BDD size %d too large for series-parallel", m.BDDSize())
	}
	r := math.Exp(-0.01)
	got, err := m.Probability(func(*Component) float64 { return r })
	if err != nil {
		t.Fatal(err)
	}
	want := math.Pow(2*r-r*r, 50)
	if relErr(got, want) > 1e-10 {
		t.Errorf("R = %g, want %g", got, want)
	}
}

func TestWeibullComponents(t *testing.T) {
	w, err := dist.NewWeibull(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	c := &Component{Name: "wear", Lifetime: w}
	m, err := New(Comp(c))
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.ReliabilityAt(5)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(-math.Pow(0.5, 2))
	if relErr(got, want) > 1e-12 {
		t.Errorf("R(5) = %g, want %g", got, want)
	}
	mttf, err := m.MTTF()
	if err != nil {
		t.Fatal(err)
	}
	if relErr(mttf, w.Mean()) > 1e-5 {
		t.Errorf("MTTF = %g, want %g", mttf, w.Mean())
	}
}

func TestRandomSeriesParallelMatchesRecursion(t *testing.T) {
	// Property: for random series-parallel structures over distinct
	// components, the BDD evaluation equals the direct recursion
	// (series → product, parallel → 1-∏(1-·)).
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 40; trial++ {
		counter := 0
		probs := map[string]float64{}
		var build func(depth int) (*Block, func() float64)
		build = func(depth int) (*Block, func() float64) {
			if depth >= 3 || rng.Float64() < 0.3 {
				name := "c" + itoaRBD(counter)
				counter++
				p := 0.05 + 0.9*rng.Float64()
				probs[name] = p
				c := &Component{Name: name, Lifetime: dist.MustExponential(1)}
				return Comp(c), func() float64 { return p }
			}
			n := 2 + rng.Intn(3)
			blocks := make([]*Block, n)
			evals := make([]func() float64, n)
			for i := range blocks {
				blocks[i], evals[i] = build(depth + 1)
			}
			if rng.Float64() < 0.5 {
				return Series(blocks...), func() float64 {
					v := 1.0
					for _, e := range evals {
						v *= e()
					}
					return v
				}
			}
			return Parallel(blocks...), func() float64 {
				v := 1.0
				for _, e := range evals {
					v *= 1 - e()
				}
				return 1 - v
			}
		}
		root, eval := build(0)
		m, err := New(root)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Probability(func(c *Component) float64 { return probs[c.Name] })
		if err != nil {
			t.Fatal(err)
		}
		want := eval()
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d: BDD %g != recursion %g", trial, got, want)
		}
	}
}

func itoaRBD(i int) string {
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

// TestSeriesOfPairsCompilesLinearly holds the whole construction of a
// series of n/2 parallel pairs, every node its manager makes, to 3n:
// the n-ary fold descends only each new operand. Folding from the
// first operand instead makes 2,602 nodes at n = 100 and 40,402 at 400.
func TestSeriesOfPairsCompilesLinearly(t *testing.T) {
	for _, n := range []int{100, 400} {
		blocks := make([]*Block, n/2)
		for i := range blocks {
			a := comp(t, "a"+strconv.Itoa(i), 1)
			b := comp(t, "b"+strconv.Itoa(i), 1)
			blocks[i] = Parallel(Comp(a), Comp(b))
		}
		m, err := New(Series(blocks...))
		if err != nil {
			t.Fatal(err)
		}
		if got := m.BDDStats().Nodes; got > 3*n {
			t.Errorf("n=%d: construction made %d nodes, want at most %d", n, got, 3*n)
		}
		if got := m.BDDSize(); got != n {
			t.Errorf("n=%d: BDD size %d, want %d", n, got, n)
		}
	}
}

// TestMTTFSharedLifetimes checks MTTF, which evaluates each distinct
// lifetime once per point, bit for bit against integrating ReliabilityAt,
// which evaluates every component's own: with one lifetime shared by
// several components, a *PhaseType shared by pointer, two Weibulls equal
// by value, and all lifetimes distinct.
func TestMTTFSharedLifetimes(t *testing.T) {
	erlang, err := dist.NewErlang(3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := dist.NewWeibull(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := dist.NewWeibull(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	w3, err := dist.NewWeibull(1.5, 8)
	if err != nil {
		t.Fatal(err)
	}
	exp := dist.MustExponential(0.2)
	named := func(name string, d dist.Distribution) *Component {
		return &Component{Name: name, Lifetime: d}
	}
	tests := []struct {
		name string
		root *Block
	}{
		{"shared", Series(
			Parallel(Comp(named("a", exp)), Comp(named("b", exp))),
			Parallel(Comp(named("c", exp)), Comp(named("d", exp))))},
		{"mixed", KOfN(2,
			Comp(named("p1", erlang)), Comp(named("p2", erlang)),
			Comp(named("w1", w1)), Comp(named("w2", w2)), Comp(named("e", exp)))},
		{"distinct", Parallel(
			Series(Comp(named("w", w3)), Comp(named("e", exp))),
			Comp(named("p", erlang)))},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m, err := New(tt.root)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.MTTF()
			if err != nil {
				t.Fatal(err)
			}
			want := linalg.IntegrateToInf(func(x float64) float64 {
				r, err := m.ReliabilityAt(x)
				if err != nil {
					t.Fatal(err)
				}
				return r
			})
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("MTTF = %v, per-component integrand %v", got, want)
			}
		})
	}
}
