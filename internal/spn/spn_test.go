package spn

import (
	"errors"
	"math"
	"strings"
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

// mm1k builds an M/M/1/K queue net: place "queue" holds customers.
func mm1k(t *testing.T, lam, mu float64, k int) *Net {
	t.Helper()
	n := New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(n.Place("queue", 0))
	must(n.Place("slots", k))
	must(n.Timed("arrive", lam))
	must(n.Timed("serve", mu))
	must(n.Input("slots", "arrive", 1))
	must(n.Output("arrive", "queue", 1))
	must(n.Input("queue", "serve", 1))
	must(n.Output("serve", "slots", 1))
	return n
}

func TestMM1KSteadyState(t *testing.T) {
	lam, mu, k := 2.0, 3.0, 4
	n := mm1k(t, lam, mu, k)
	tc, err := n.Generate(0)
	if err != nil {
		t.Fatal(err)
	}
	if tc.NumTangible() != k+1 {
		t.Fatalf("tangible markings = %d, want %d", tc.NumTangible(), k+1)
	}
	qi, err := n.PlaceIndex("queue")
	if err != nil {
		t.Fatal(err)
	}
	// pi_j ∝ rho^j.
	rho := lam / mu
	var norm float64
	for j := 0; j <= k; j++ {
		norm += math.Pow(rho, float64(j))
	}
	for j := 0; j <= k; j++ {
		want := math.Pow(rho, float64(j)) / norm
		got, err := tc.ProbWhere(func(m Marking) bool { return m[qi] == j })
		if err != nil {
			t.Fatal(err)
		}
		if relErr(got, want) > 1e-12 {
			t.Errorf("P(N=%d) = %g, want %g", j, got, want)
		}
	}
	// Mean queue length.
	en, err := tc.ExpectedTokens("queue")
	if err != nil {
		t.Fatal(err)
	}
	var wantEN float64
	for j := 0; j <= k; j++ {
		wantEN += float64(j) * math.Pow(rho, float64(j)) / norm
	}
	if relErr(en, wantEN) > 1e-12 {
		t.Errorf("E[N] = %g, want %g", en, wantEN)
	}
}

func TestThroughputBalance(t *testing.T) {
	// In steady state, arrival throughput equals service throughput.
	n := mm1k(t, 1.5, 2.5, 3)
	tc, err := n.Generate(0)
	if err != nil {
		t.Fatal(err)
	}
	ta, err := tc.Throughput("arrive")
	if err != nil {
		t.Fatal(err)
	}
	ts, err := tc.Throughput("serve")
	if err != nil {
		t.Fatal(err)
	}
	if relErr(ta, ts) > 1e-12 {
		t.Errorf("throughputs differ: arrive %g vs serve %g", ta, ts)
	}
	// Effective arrival rate = λ(1-P(full)).
	qi, _ := n.PlaceIndex("queue")
	pFull, _ := tc.ProbWhere(func(m Marking) bool { return m[qi] == 3 })
	if relErr(ta, 1.5*(1-pFull)) > 1e-12 {
		t.Errorf("throughput %g, want %g", ta, 1.5*(1-pFull))
	}
}

func TestSharedRepairSPNMatchesHandBuiltCTMC(t *testing.T) {
	// Two identical components, one shared repairer — the canonical
	// dependence example. SPN marking (up, down) with repair served one at
	// a time.
	lam, mu := 0.2, 1.0
	n := New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(n.Place("up", 2))
	must(n.Place("down", 0))
	// Infinite-server failure: rate ∝ number up.
	upIdx := 0
	must(n.TimedFunc("fail", func(m Marking) float64 { return lam * float64(m[upIdx]) }))
	must(n.Input("up", "fail", 1))
	must(n.Output("fail", "down", 1))
	// Single repairer: constant rate regardless of queue length.
	must(n.Timed("repair", mu))
	must(n.Input("down", "repair", 1))
	must(n.Output("repair", "up", 1))

	tc, err := n.Generate(0)
	if err != nil {
		t.Fatal(err)
	}
	if tc.NumTangible() != 3 {
		t.Fatalf("tangible = %d, want 3", tc.NumTangible())
	}
	// Hand-built chain.
	c := markov.NewCTMC()
	_ = c.AddRate("2", "1", 2*lam)
	_ = c.AddRate("1", "0", lam)
	_ = c.AddRate("1", "2", mu)
	_ = c.AddRate("0", "1", mu)
	want, err := c.SteadyStateMap()
	if err != nil {
		t.Fatal(err)
	}
	for nUp := 0; nUp <= 2; nUp++ {
		nUp := nUp
		got, err := tc.ProbWhere(func(m Marking) bool { return m[upIdx] == nUp })
		if err != nil {
			t.Fatal(err)
		}
		key := []string{"0", "1", "2"}[nUp]
		if relErr(got, want[key]) > 1e-12 {
			t.Errorf("P(up=%d) = %g, want %g", nUp, got, want[key])
		}
	}
}

func TestImmediateTransitionsAndVanishing(t *testing.T) {
	// Coverage model: a failure is covered (prob c → degraded) or
	// uncovered (prob 1-c → down), resolved by immediate transitions.
	c := 0.9
	lam, mu := 1.0, 10.0
	n := New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(n.Place("ok", 1))
	must(n.Place("choice", 0))
	must(n.Place("degraded", 0))
	must(n.Place("failed", 0))
	must(n.Timed("fail", lam))
	must(n.Input("ok", "fail", 1))
	must(n.Output("fail", "choice", 1))
	must(n.Immediate("covered", c))
	must(n.Input("choice", "covered", 1))
	must(n.Output("covered", "degraded", 1))
	must(n.Immediate("uncovered", 1-c))
	must(n.Input("choice", "uncovered", 1))
	must(n.Output("uncovered", "failed", 1))
	must(n.Timed("repairDeg", mu))
	must(n.Input("degraded", "repairDeg", 1))
	must(n.Output("repairDeg", "ok", 1))
	must(n.Timed("repairFail", mu/10))
	must(n.Input("failed", "repairFail", 1))
	must(n.Output("repairFail", "ok", 1))

	tc, err := n.Generate(0)
	if err != nil {
		t.Fatal(err)
	}
	// Vanishing marking (choice=1) must not appear.
	ci, _ := n.PlaceIndex("choice")
	for _, m := range tc.Markings {
		if m[ci] != 0 {
			t.Fatalf("vanishing marking %v survived", m)
		}
	}
	if tc.NumTangible() != 3 {
		t.Fatalf("tangible = %d, want 3", tc.NumTangible())
	}
	// Compare against hand-built CTMC with branch rates λc and λ(1-c).
	hand := markov.NewCTMC()
	_ = hand.AddRate("ok", "deg", lam*c)
	_ = hand.AddRate("ok", "fail", lam*(1-c))
	_ = hand.AddRate("deg", "ok", mu)
	_ = hand.AddRate("fail", "ok", mu/10)
	want, err := hand.SteadyStateMap()
	if err != nil {
		t.Fatal(err)
	}
	oi, _ := n.PlaceIndex("ok")
	gotOK, _ := tc.ProbWhere(func(m Marking) bool { return m[oi] == 1 })
	if relErr(gotOK, want["ok"]) > 1e-12 {
		t.Errorf("P(ok) = %g, want %g", gotOK, want["ok"])
	}
}

func TestInhibitorArc(t *testing.T) {
	// Arrivals inhibited when the buffer holds 2 tokens → M/M/1/2.
	n := New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(n.Place("buf", 0))
	must(n.Timed("arrive", 1.0))
	must(n.Output("arrive", "buf", 1))
	must(n.Inhibitor("buf", "arrive", 2))
	must(n.Timed("serve", 2.0))
	must(n.Input("buf", "serve", 1))
	tc, err := n.Generate(0)
	if err != nil {
		t.Fatal(err)
	}
	if tc.NumTangible() != 3 {
		t.Fatalf("tangible = %d, want 3", tc.NumTangible())
	}
	bi, _ := n.PlaceIndex("buf")
	// Birth-death: pi ∝ (1/2)^j.
	norm := 1 + 0.5 + 0.25
	for j := 0; j <= 2; j++ {
		j := j
		got, _ := tc.ProbWhere(func(m Marking) bool { return m[bi] == j })
		want := math.Pow(0.5, float64(j)) / norm
		if relErr(got, want) > 1e-12 {
			t.Errorf("P(%d) = %g, want %g", j, got, want)
		}
	}
}

func TestGuard(t *testing.T) {
	// Guarded repair: only while fewer than 2 components are down (e.g.
	// deferred repair policy).
	n := New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(n.Place("up", 2))
	must(n.Place("down", 0))
	ui := 0
	must(n.TimedFunc("fail", func(m Marking) float64 { return 0.5 * float64(m[ui]) }))
	must(n.Input("up", "fail", 1))
	must(n.Output("fail", "down", 1))
	// Batch repair: both components restored at once, only when everything
	// is down (repair-on-total-failure policy).
	must(n.Timed("repair", 3))
	must(n.Input("down", "repair", 2))
	must(n.Output("repair", "up", 2))
	di, _ := n.PlaceIndex("down")
	must(n.SetGuard("repair", func(m Marking) bool { return m[di] == 2 }))
	tc, err := n.Generate(0)
	if err != nil {
		t.Fatal(err)
	}
	// Equivalent CTMC cycle: 2 →(2·0.5) 1 →(0.5) 0 →(3) 2.
	hand := markov.NewCTMC()
	_ = hand.AddRate("2", "1", 1.0)
	_ = hand.AddRate("1", "0", 0.5)
	_ = hand.AddRate("0", "2", 3.0)
	want, err := hand.SteadyStateMap()
	if err != nil {
		t.Fatal(err)
	}
	got, _ := tc.ProbWhere(func(m Marking) bool { return m[di] == 2 })
	if relErr(got, want["0"]) > 1e-12 {
		t.Errorf("P(all down) = %g, want %g", got, want["0"])
	}
}

func TestGenerateFromVanishingStart(t *testing.T) {
	// The initial marking is vanishing: an immediate transition fires at
	// t=0, and the chain starts from both tangible branches.
	n := New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(n.Place("start", 1))
	must(n.Place("a", 0))
	must(n.Place("b", 0))
	must(n.Immediate("toA", 0.3))
	must(n.Input("start", "toA", 1))
	must(n.Output("toA", "a", 1))
	must(n.Immediate("toB", 0.7))
	must(n.Input("start", "toB", 1))
	must(n.Output("toB", "b", 1))
	must(n.Timed("ab", 1))
	must(n.Input("a", "ab", 1))
	must(n.Output("ab", "b", 1))
	must(n.Timed("ba", 2))
	must(n.Input("b", "ba", 1))
	must(n.Output("ba", "a", 1))
	tc, err := n.Generate(0)
	if err != nil {
		t.Fatal(err)
	}
	si, _ := n.PlaceIndex("start")
	for _, m := range tc.Markings {
		if m[si] != 0 {
			t.Fatalf("vanishing start marking %v survived", m)
		}
	}
	if tc.NumTangible() != 2 {
		t.Fatalf("tangible = %d, want 2", tc.NumTangible())
	}
}

func TestVanishingLoopDetected(t *testing.T) {
	n := New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(n.Place("a", 1))
	must(n.Place("b", 0))
	must(n.Immediate("ab", 1))
	must(n.Input("a", "ab", 1))
	must(n.Output("ab", "b", 1))
	must(n.Immediate("ba", 1))
	must(n.Input("b", "ba", 1))
	must(n.Output("ba", "a", 1))
	if _, err := n.Generate(0); !errors.Is(err, ErrVanishingLoop) {
		t.Errorf("want ErrVanishingLoop, got %v", err)
	}
}

func TestStateSpaceLimit(t *testing.T) {
	// Unbounded net: arrivals with no capacity bound.
	n := New()
	_ = n.Place("buf", 0)
	_ = n.Timed("arrive", 1)
	_ = n.Output("arrive", "buf", 1)
	if _, err := n.Generate(50); !errors.Is(err, ErrStateSpaceLimit) {
		t.Errorf("want ErrStateSpaceLimit, got %v", err)
	}
}

func TestConstructionErrors(t *testing.T) {
	n := New()
	_ = n.Place("p", 1)
	if err := n.Place("p", 0); !errors.Is(err, ErrDuplicate) {
		t.Errorf("dup place: %v", err)
	}
	if err := n.Place("neg", -1); err == nil {
		t.Error("negative tokens accepted")
	}
	if err := n.Timed("t", 0); err == nil {
		t.Error("zero rate accepted")
	}
	if err := n.Immediate("i", -1); err == nil {
		t.Error("negative weight accepted")
	}
	_ = n.Timed("t", 1)
	if err := n.Timed("t", 2); !errors.Is(err, ErrDuplicate) {
		t.Errorf("dup transition: %v", err)
	}
	if err := n.Input("missing", "t", 1); !errors.Is(err, ErrUnknownPlace) {
		t.Errorf("unknown place: %v", err)
	}
	if err := n.Input("p", "missing", 1); !errors.Is(err, ErrUnknownTransition) {
		t.Errorf("unknown transition: %v", err)
	}
	if err := n.Input("p", "t", 0); err == nil {
		t.Error("zero multiplicity accepted")
	}
}

func TestTransientViaUnderlyingChain(t *testing.T) {
	// The SPN-generated chain supports the full markov API: transient of
	// the single-component repairable net matches the closed form.
	lam, mu := 0.4, 2.0
	n := New()
	_ = n.Place("up", 1)
	_ = n.Place("down", 0)
	_ = n.Timed("fail", lam)
	_ = n.Input("up", "fail", 1)
	_ = n.Output("fail", "down", 1)
	_ = n.Timed("repair", mu)
	_ = n.Input("down", "repair", 1)
	_ = n.Output("repair", "up", 1)
	tc, err := n.Generate(0)
	if err != nil {
		t.Fatal(err)
	}
	ui, _ := n.PlaceIndex("up")
	var upStates []string
	for _, m := range tc.Markings {
		if m[ui] == 1 {
			upStates = append(upStates, stateName(m))
		}
	}
	if len(upStates) != 1 {
		t.Fatalf("up states = %v", upStates)
	}
	p0, err := tc.Chain.InitialAt(upStates[0])
	if err != nil {
		t.Fatal(err)
	}
	tt := 0.9
	p, err := tc.Chain.Transient(tt, p0, markov.TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := tc.Chain.ProbSum(p, upStates...)
	if err != nil {
		t.Fatal(err)
	}
	s := lam + mu
	want := mu/s + lam/s*math.Exp(-s*tt)
	if relErr(got, want) > 1e-9 {
		t.Errorf("A(%g) = %g, want %g", tt, got, want)
	}
}

func TestNetWriteDOT(t *testing.T) {
	n := mm1k(t, 1, 2, 3)
	var sb strings.Builder
	if err := n.WriteDOT(&sb, "mm1k"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`digraph "mm1k"`, `"p_queue"`, `"t_arrive"`, "shape=box"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
	if err := New().WriteDOT(&sb, "empty"); err == nil {
		t.Error("empty net accepted")
	}
}
