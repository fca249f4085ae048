//go:build !race

// GTH on hundreds of states takes minutes under the race detector, so
// the band oracle builds only without it.

package markov

import (
	"fmt"
	"math"
	"math/rand"
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

// TestAutoMatchesGTHInTheBand is the auto policy's oracle over 2,200
// seeded chains of 257–600 states. A chain with one closed class of
// several states and a rate spread inside it below
// relstruct.StiffThreshold, solved by auto, agrees with GTH to 1e-9
// relative in every state, and GTH answers it however its states are
// numbered. Every other chain (stiff, with two closed classes, or with an
// absorbing state) gets GTH's vector bit for bit, or GTH's error text;
// transient-first chains must answer.
func TestAutoMatchesGTHInTheBand(t *testing.T) {
	rng := rand.New(rand.NewSource(2028))
	const chains = 2200
	moved := 0
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
			t.Fatalf("chain %d (%s, %d states): GTH fails with %v where auto answers", i, b.shape, b.n, wantErr)
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
	t.Logf("%d chains: %d solved by SOR apart from GTH's bits", chains, moved)
	if moved < chains/4 {
		t.Fatalf("auto took SOR on only %d of %d chains", moved, chains)
	}
}
