//go:build !race

// GTH on hundreds of states takes minutes under the race detector, so
// the band oracle builds only without it.

package markov

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/relstruct"
)

// close9 reports whether a and b agree to within 1e-9 relative. Below
// the smallest normal float, where no value holds nine digits, the
// difference is measured against that float instead.
func close9(a, b float64) bool {
	if a == b { //numvet:allow float-eq equal values, zeros included, agree
		return true
	}
	scale := math.Max(math.Max(math.Abs(a), math.Abs(b)), 0x1p-1022)
	return math.Abs(a-b) <= 1e-9*scale
}

// renumbered solves the chain by GTH with its closed class's states
// numbered first, in order or, with reversed, in reverse order. GTH needs
// the first when a transient state comes first, and the second when the
// stationary probabilities grow so fast along the numbering that its
// unnormalized back substitution, which starts at 1 for state 0,
// overflows.
func renumbered(tb testing.TB, b *bandCase, reversed bool) ([]float64, error) {
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
	if reversed {
		slices.Reverse(order[:b.n-rep.TransientStates])
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

// TestAutoMatchesGTHInTheBand is the auto policy's oracle over 2,200
// seeded chains of 257–600 states. A chain with one closed class of
// several states and a rate spread inside it below
// relstruct.StiffThreshold, solved by auto, agrees with GTH to 1e-9
// relative in every state. Where GTH fails on it only because of the
// numbering (a transient state first, or probabilities that overflow
// GTH's back substitution), auto gives GTH's error or agrees with GTH on
// the chain renumbered (see renumbered); transient-first chains must
// answer. Every other chain (stiff, with two closed classes, or with an
// absorbing state) gets GTH's vector bit for bit, or GTH's error text.
func TestAutoMatchesGTHInTheBand(t *testing.T) {
	rng := rand.New(rand.NewSource(2028))
	const chains = 2200
	moved, rescued := 0, 0
	for i := 0; i < chains; i++ {
		b := bandCaseFor(rng, i%11)
		rep, err := relstruct.Analyze(relstruct.Input{States: b.n, From: b.from, To: b.to, Weight: b.rate})
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.RecurrentClasses == 1 && rep.AbsorbingStates == nil && !rep.Stiffness.Stiff; got != b.sorOK {
			t.Fatalf("chain %d (%s): built with sorOK=%v, but %d closed classes, %d absorbing, stiff %v",
				i, b.shape, b.sorOK, rep.RecurrentClasses, len(rep.AbsorbingStates), rep.Stiffness.Stiff)
		}
		c := b.chain(t)
		want, wantErr := c.SteadyStateWithOptions(SteadyStateOptions{Method: "gth"})
		got, gotErr := c.SteadyState()
		if !b.sorOK || (gotErr != nil && wantErr != nil) {
			if strings.HasPrefix(b.shape, "transient first") {
				t.Fatalf("chain %d (%s, %d states): auto %v, want an answer", i, b.shape, b.n, gotErr)
			}
			if sameBits(got, want) != "" || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("chain %d (%s, %d states): auto %v, want GTH's vector or error %v", i, b.shape, b.n, gotErr, wantErr)
			}
			continue
		}
		if gotErr != nil {
			t.Fatalf("chain %d (%s, %d states): auto fails with %v where GTH answers", i, b.shape, b.n, gotErr)
		}
		if wantErr != nil {
			if want, err = renumbered(t, b, false); err != nil {
				if want, err = renumbered(t, b, true); err != nil {
					t.Fatalf("chain %d (%s): GTH fails however the closed class is numbered: %v", i, b.shape, err)
				}
			}
			rescued++
		}
		for s := range want {
			if !close9(got[s], want[s]) {
				t.Fatalf("chain %d (%s, %d states): state %d auto %.17g, GTH %.17g", i, b.shape, b.n, s, got[s], want[s])
			}
		}
		if sameBits(got, want) != "" {
			moved++
		}
	}
	t.Logf("%d chains: %d solved by SOR apart from GTH's bits, %d answered where GTH needs the states renumbered", chains, moved, rescued)
	if moved < chains/4 {
		t.Fatalf("auto took SOR on only %d of %d chains", moved, chains)
	}
}
