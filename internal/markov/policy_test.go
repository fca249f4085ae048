package markov

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/guard"
	"repro/internal/linalg"
	"repro/internal/relstruct"
)

// bandCase is one generated chain for the auto policy's oracle: its
// transitions, and what it was built to be.
type bandCase struct {
	shape    string
	n        int
	from, to []int
	rate     []float64
	// sorOK marks a chain with one closed class of several states and a
	// rate spread inside it below relstruct.StiffThreshold, which auto may
	// solve by SOR.
	sorOK bool
}

func (b *bandCase) add(from, to int, rate float64) {
	b.from = append(b.from, from)
	b.to = append(b.to, to)
	b.rate = append(b.rate, rate)
}

// chain builds the case's CTMC with states named s0, s1, ….
func (b *bandCase) chain(tb testing.TB) *CTMC {
	names := make([]string, b.n)
	index := make(map[string]int, b.n)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
		index[names[i]] = i
	}
	c, err := NewCTMCFrom(names, index, slices.Clone(b.from), slices.Clone(b.to), slices.Clone(b.rate))
	if err != nil {
		tb.Fatalf("%s: %v", b.shape, err)
	}
	return c
}

// ring links states lo..hi-1 in a ring at rates drawn from [0.2, 5], with
// a chord out of one state in four.
func (b *bandCase) ring(rng *rand.Rand, lo, hi int) {
	for s := lo; s < hi; s++ {
		next := s + 1
		if next == hi {
			next = lo
		}
		b.add(s, next, 0.2+4.8*rng.Float64())
		if rng.Intn(4) == 0 {
			if t := lo + rng.Intn(hi-lo); t != s {
				b.add(s, t, 0.2+4.8*rng.Float64())
			}
		}
	}
}

// birthDeath links states lo..hi-1 as a birth–death chain whose up and
// down rates have the ratio r, each jittered by up to 10%.
func (b *bandCase) birthDeath(rng *rand.Rand, lo, hi int, r float64) {
	for s := lo; s+1 < hi; s++ {
		b.add(s, s+1, r*(0.9+0.2*rng.Float64()))
		b.add(s+1, s, 0.9+0.2*rng.Float64())
	}
}

// farm is a repair farm of unlike machines: machine i has levels[i]
// states (0 up, the last down), moves one level down at λi times its
// level and one level up at μi, by its own crew or, with shared, by one
// crew that repairs the lowest-numbered machine not up. The farm's
// states number the machines' levels in mixed radix.
func (b *bandCase) farm(rng *rand.Rand, levels []int, shared bool) {
	m := len(levels)
	lam, mu := make([]float64, m), make([]float64, m)
	b.n = 1
	for i := range lam {
		lam[i] = 0.001 + 0.08*rng.Float64()
		mu[i] = 0.5 + rng.Float64()
		b.n *= levels[i]
	}
	for s := 0; s < b.n; s++ {
		repaired := false
		for i, place := 0, 1; i < m; i, place = i+1, place*levels[i] {
			level := s / place % levels[i]
			if level+1 < levels[i] {
				b.add(s, s+place, lam[i]*float64(level+1))
			}
			if level > 0 && (!shared || !repaired) {
				b.add(s, s-place, mu[i])
				repaired = true
			}
		}
	}
}

// farmLevels draws a farm's machines: five two-level and two three-level
// machines (288 states), six and one five-level (320), seven and one
// three-level (384), or, one time in eight, nine two-level (512).
func farmLevels(rng *rand.Rand) []int {
	switch rng.Intn(8) {
	case 0:
		return []int{2, 2, 2, 2, 2, 2, 2, 2, 2}
	case 1, 2:
		return []int{2, 2, 2, 2, 2, 2, 2, 3}
	case 3, 4:
		return []int{2, 2, 2, 2, 2, 2, 5}
	}
	return []int{2, 2, 2, 2, 2, 3, 3}
}

// bandCaseFor draws one chain of 257–600 states. Shapes 0–4 are
// irreducible and not stiff; 5 and 6 are stiff variants of a ring and a
// farm; 7 has two closed classes; 8 and 9 put transient states before
// or after one closed ring, in a line or in a cycle; 10 has one absorbing
// state and every other state transient. Shapes 5, 6, 7 and 10 stay on
// GTH.
func bandCaseFor(rng *rand.Rand, shape int) *bandCase {
	// Most chains sit near the bottom of the band, where GTH is cheapest.
	n := 257 + rng.Intn(64)
	if rng.Intn(8) == 0 {
		n = 257 + rng.Intn(344)
	}
	b := &bandCase{n: n, sorOK: true}
	switch shape {
	case 0:
		b.shape = "ring"
		b.ring(rng, 0, n)
	case 1:
		r := []float64{0.2, 0.5, 0.9, 1, 1.1, 2, 5}[rng.Intn(7)]
		b.shape = fmt.Sprintf("birth-death r=%g", r)
		b.birthDeath(rng, 0, n, r)
	case 2:
		b.shape = "farm"
		b.farm(rng, farmLevels(rng), false)
	case 3:
		b.shape = "farm, shared repair"
		b.farm(rng, farmLevels(rng), true)
	case 4:
		// A ring backbone with random edges whose rates span four decades;
		// one chain in eight spans 5e5, just below the stiffness threshold.
		b.shape = "random"
		span := 1e4
		if rng.Intn(8) == 0 {
			span = 5e5
		}
		for s := 0; s < n; s++ {
			b.add(s, (s+1)%n, 1)
			for e := rng.Intn(4); e > 0; e-- {
				if t := rng.Intn(n); t != s {
					b.add(s, t, math.Pow(span, rng.Float64()))
				}
			}
		}
	case 5, 6:
		if shape == 5 {
			b.shape = "stiff ring"
			b.ring(rng, 0, n)
		} else {
			b.shape = "stiff farm"
			b.farm(rng, farmLevels(rng), false)
		}
		// Speed up a few transitions 1e6- to 1e8-fold.
		for k := 1 + rng.Intn(4); k > 0; k-- {
			b.rate[rng.Intn(len(b.rate))] *= math.Pow(10, 6+2*rng.Float64())
		}
		b.sorOK = false
	case 7:
		// Two closed classes, with transient states feeding both or none.
		b.shape = "two classes"
		split := n/4 + rng.Intn(n/2)
		t := rng.Intn(4)
		b.ring(rng, t, split)
		b.birthDeath(rng, split, n, 1)
		for s := 0; s < t; s++ {
			b.add(s, t+rng.Intn(split-t), 1)
			b.add(s, split+rng.Intn(n-split), 1)
		}
		b.sorOK = false
	case 8, 9:
		// t transient states, numbered first (8) or last (9), that drain
		// into a closed ring in a line or through a cycle of their own.
		t := 1 + rng.Intn(20)
		first, cycle := shape == 8, rng.Intn(2) == 0
		lo, hi, tr := t, n, 0
		if !first {
			lo, hi, tr = 0, n-t, n-t
		}
		b.shape = fmt.Sprintf("transient first=%v cycle=%v", first, cycle)
		b.ring(rng, lo, hi)
		for i := 0; i < t; i++ {
			s := tr + i
			switch {
			case i+1 < t:
				b.add(s, s+1, 0.5+rng.Float64())
			default:
				b.add(s, lo+rng.Intn(hi-lo), 0.5+rng.Float64())
			}
			if cycle && i > 0 {
				b.add(s, tr, 0.5+rng.Float64())
			}
		}
	default:
		// State a absorbs; a birth–death chain drains into it.
		b.shape = "absorbing"
		b.sorOK = false
		a := []int{0, n - 1, rng.Intn(n)}[rng.Intn(3)]
		for s := 0; s < n; s++ {
			if s == a {
				continue
			}
			toward := s - 1
			if s < a {
				toward = s + 1
			}
			b.add(s, toward, 1+rng.Float64())
			if away := 2*s - toward; away >= 0 && away < n && away != a {
				b.add(s, away, 0.5*rng.Float64()+0.1)
			}
		}
	}
	return b
}

// TestAutoKeepsGTHUpToTheCutoff: a chain of at most 256 states, of any
// shape, gets GTH's vector bit for bit.
func TestAutoKeepsGTHUpToTheCutoff(t *testing.T) {
	rng := rand.New(rand.NewSource(256))
	for i := 0; i < 60; i++ {
		b := &bandCase{n: 200 + rng.Intn(57)}
		switch i % 3 {
		case 0:
			b.ring(rng, 0, b.n)
		case 1:
			b.birthDeath(rng, 0, b.n, 0.5)
		default:
			b.ring(rng, 1, b.n)
			b.add(0, 1, 1)
		}
		c := b.chain(t)
		want, wantErr := c.SteadyStateWithOptions(SteadyStateOptions{Method: "gth"})
		got, gotErr := c.SteadyState()
		if sameBits(got, want) != "" || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("chain %d (%d states): auto differs from GTH (%v, %v)", i, b.n, gotErr, wantErr)
		}
	}
}

// TestBirthDeathOverflowingGTH: a 600-state birth–death chain whose up
// rate is five times its down rate, π(k) = 4·5^k/(5^600−1). GTH's
// unnormalized back substitution grows 5^599-fold from state 0, so it
// rescales on the way; auto reaches GTH once SOR spends its budget. Both
// answer within 1e-12 relative of the closed form in the top states,
// where the mass is.
func TestBirthDeathOverflowingGTH(t *testing.T) {
	b := &bandCase{n: 600}
	for s := 0; s+1 < b.n; s++ {
		b.add(s, s+1, 5)
		b.add(s+1, s, 1)
	}
	c := b.chain(t)
	for _, method := range []string{"gth", "auto"} {
		pi, err := c.SteadyStateWithOptions(SteadyStateOptions{Method: method})
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		for k := 300; k < b.n; k++ {
			want := 4 * math.Pow(5, float64(k-b.n))
			if math.Abs(pi[k]-want) > 1e-12*want {
				t.Fatalf("%s: π(s%d) = %.17g, want %.17g", method, k, pi[k], want)
			}
		}
	}
}

// cancelAfter is a context that reports itself canceled from its
// (after+1)-th Done call on, so a solve is interrupted at a fixed sweep.
type cancelAfter struct {
	context.Context
	calls, after int
}

func (c *cancelAfter) Done() <-chan struct{} {
	c.calls++
	if c.calls > c.after {
		ch := make(chan struct{})
		close(ch)
		return ch
	}
	return nil
}

func (c *cancelAfter) Err() error {
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// TestAutoBandInterruptAndBudget: a cancellation during auto's SOR ends
// the solve with the interrupt instead of running GTH, and a document's
// sweep limit below the budget (SOR.MaxIter 1) exhausts SOR, after which
// the solve returns GTH's bits.
func TestAutoBandInterruptAndBudget(t *testing.T) {
	b := bandCaseFor(rand.New(rand.NewSource(1)), 0)
	c := b.chain(t)
	ctx := &cancelAfter{Context: context.Background(), after: 3}
	pi, err := c.SteadyStateWithOptions(SteadyStateOptions{Ctx: ctx})
	var ie *guard.InterruptError
	if pi != nil || !errors.As(err, &ie) || !errors.Is(err, guard.ErrCanceled) || ie.Op != "linalg.sor" || ie.Iterations == 0 {
		t.Fatalf("canceled during SOR: %v, %v; want the SOR interrupt", pi != nil, err)
	}
	want, err := c.SteadyStateWithOptions(SteadyStateOptions{Method: "gth"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.SteadyStateWithOptions(SteadyStateOptions{SOR: linalg.SOROptions{MaxIter: 1}})
	if err != nil || sameBits(got, want) != "" {
		t.Fatalf("SOR capped at one sweep: %v; want GTH's bits", err)
	}
	if free, err := c.SteadyState(); err != nil || sameBits(free, want) == "" {
		t.Fatalf("uncapped auto: %v; want SOR's own answer", err)
	}
}

// TestGTHSolvesTransientStatesFirst: GTH's elimination fails a chain
// whose transient states are numbered before its one closed class, so
// the gth method then solves the class alone and pads zeros. The
// four-state chain t0 → ring r0 → r1 → r2 → r0 at rates 1, 2, 3, 4 has
// π = (0, 6, 4, 3)/13. A ring with ten transient states numbered first
// matches the same chain numbered last within 1e-12, under gth at 40
// and 310 states and under auto at 40.
func TestGTHSolvesTransientStatesFirst(t *testing.T) {
	c := NewCTMC()
	for _, tr := range []struct {
		from, to string
		rate     float64
	}{{"t0", "r0", 1}, {"r0", "r1", 2}, {"r1", "r2", 3}, {"r2", "r0", 4}} {
		if err := c.AddRate(tr.from, tr.to, tr.rate); err != nil {
			t.Fatal(err)
		}
	}
	for _, method := range []string{"gth", ""} {
		pi, err := c.SteadyStateWithOptions(SteadyStateOptions{Method: method})
		if err != nil {
			t.Fatalf("method %q: %v", method, err)
		}
		for s, want := range []float64{0, 6.0 / 13, 4.0 / 13, 3.0 / 13} {
			if math.Abs(pi[s]-want) > 1e-15 {
				t.Errorf("method %q: π = %v, want (0, 6, 4, 3)/13", method, pi)
				break
			}
		}
	}
	for _, tc := range []struct {
		n      int
		method string
	}{{40, "gth"}, {310, "gth"}, {40, ""}} {
		rng := rand.New(rand.NewSource(int64(tc.n)))
		b := &bandCase{n: tc.n}
		b.ring(rng, 10, tc.n)
		for s := 0; s < 10; s++ {
			to := s + 1
			if s == 9 {
				to = 10 + rng.Intn(tc.n-10)
			}
			b.add(s, to, 0.5+rng.Float64())
		}
		got, err := b.chain(t).SteadyStateWithOptions(SteadyStateOptions{Method: tc.method})
		if err != nil {
			t.Fatalf("%d states, method %q: %v", tc.n, tc.method, err)
		}
		want, err := renumbered(t, b)
		if err != nil {
			t.Fatalf("%d states, transient states last: %v", tc.n, err)
		}
		for s := range want {
			if math.Abs(got[s]-want[s]) > 1e-12 {
				t.Fatalf("%d states, method %q: state %d %.17g, numbered last %.17g", tc.n, tc.method, s, got[s], want[s])
			}
		}
	}
}

// renumbered solves the chain by GTH with its closed classes' states
// numbered first and its transient states last, each in their order.
func renumbered(tb testing.TB, b *bandCase) ([]float64, error) {
	rep, err := relstruct.Analyze(relstruct.Input{States: b.n, From: b.from, To: b.to, Weight: b.rate})
	if err != nil {
		tb.Fatal(err)
	}
	classOf := rep.ClassOf()
	order := make([]int, 0, b.n)
	for _, recurrent := range []bool{true, false} {
		for s := 0; s < b.n; s++ {
			if rep.Classes[classOf[s]].Recurrent == recurrent {
				order = append(order, s)
			}
		}
	}
	pos := make([]int, b.n)
	for i, s := range order {
		pos[s] = i
	}
	r := &bandCase{n: b.n}
	for k := range b.from {
		r.add(pos[b.from[k]], pos[b.to[k]], b.rate[k])
	}
	pi, err := r.chain(tb).SteadyStateWithOptions(SteadyStateOptions{Method: "gth"})
	if err != nil {
		return nil, err
	}
	out := make([]float64, b.n)
	for s := range out {
		out[s] = pi[pos[s]]
	}
	return out, nil
}

// TestMultiClassChainsAreReducible: a chain of two closed rings fails
// under auto above 600 states and under sor and chain at any size with
// an error matching linalg.ErrReducible; in the band auto gives GTH's
// error. Once transitions join the rings, sor solves the chain, even
// though a pattern of it kept the closed classes it found before.
func TestMultiClassChainsAreReducible(t *testing.T) {
	for _, tc := range []struct {
		n      int
		method string
		want   string
	}{
		{700, "", "markov steady state: 2 closed classes, so the long-run distribution is not unique; generator reducible"},
		{700, "chain", "markov steady state: 2 closed classes, so the long-run distribution is not unique; generator reducible"},
		{40, "chain", "markov steady state: 2 closed classes, so the long-run distribution is not unique; generator reducible"},
		{700, "sor", "markov steady state: 2 closed classes, so the long-run distribution is not unique; generator reducible"},
		{40, "sor", "markov steady state: 2 closed classes, so the long-run distribution is not unique; generator reducible"},
		{310, "", "markov steady state: gth: state 155 has no transitions to lower-indexed states; generator reducible"},
	} {
		b := &bandCase{n: tc.n}
		rng := rand.New(rand.NewSource(int64(tc.n)))
		b.ring(rng, 0, tc.n/2)
		b.ring(rng, tc.n/2, tc.n)
		c := b.chain(t)
		if _, err := NewPattern(c); err != nil {
			t.Fatal(err)
		}
		_, err := c.SteadyStateWithOptions(SteadyStateOptions{Method: tc.method})
		if !errors.Is(err, linalg.ErrReducible) || err.Error() != tc.want {
			t.Errorf("%d states, method %q: %v, want %q", tc.n, tc.method, err, tc.want)
		}
		if tc.method != "sor" {
			continue
		}
		for _, pair := range [][2]int{{0, tc.n / 2}, {tc.n / 2, 0}} {
			if err := c.AddRate(fmt.Sprintf("s%d", pair[0]), fmt.Sprintf("s%d", pair[1]), 1); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.SteadyStateWithOptions(SteadyStateOptions{Method: "sor"}); err != nil {
			t.Errorf("%d states, rings joined: sor: %v", tc.n, err)
		}
	}
}
