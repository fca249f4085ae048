package modelio

import (
	"math"
	"testing"

	"repro/internal/obs"
)

// farmSpec builds the detailed chain of n independent identical machines
// (mask states, per-machine fail rate lam, single shared repairer fixing
// the lowest failed machine at rate mu), with up = "at most maxDown
// machines down". The chain is exactly lumpable to the failure-count
// chain, which is what the automatic pre-pass must discover.
func farmSpec(n int, lam, mu float64, maxDown int, measures []string, lump string) *Spec {
	name := func(mask int) string {
		buf := make([]byte, n)
		for i := 0; i < n; i++ {
			buf[i] = '0'
			if mask&(1<<i) != 0 {
				buf[i] = '1'
			}
		}
		return "m" + string(buf)
	}
	spec := &CTMCSpec{Measures: measures, Lump: lump}
	var up, absorbing []string
	full := (1 << n) - 1
	for mask := 0; mask <= full; mask++ {
		down := 0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				down++
			}
		}
		if down <= maxDown {
			up = append(up, name(mask))
		}
		if mask == full {
			absorbing = append(absorbing, name(mask))
		}
		for i := 0; i < n; i++ {
			if mask&(1<<i) == 0 {
				spec.Transitions = append(spec.Transitions, CTMCTransition{
					From: name(mask), To: name(mask | (1 << i)), Rate: lam,
				})
			}
		}
		// Shared repair: lowest failed machine only.
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				spec.Transitions = append(spec.Transitions, CTMCTransition{
					From: name(mask), To: name(mask &^ (1 << i)), Rate: mu,
				})
				break
			}
		}
	}
	spec.UpStates = up
	spec.Initial = name(0)
	spec.Absorbing = absorbing
	return &Spec{Type: "ctmc", Name: "farm", CTMC: spec}
}

// TestAutoLumpAvailabilityMatchesDetailed solves the symmetric farm with
// the pre-pass on and off: the availabilities must agree exactly (the
// lumping is exact, not approximate) and the traced solve must show the
// relstruct.lump span with the right reduction.
func TestAutoLumpAvailabilityMatchesDetailed(t *testing.T) {
	const n = 5
	off := farmSpec(n, 0.01, 1.0, 2, []string{"availability"}, "off")
	auto := farmSpec(n, 0.01, 1.0, 2, []string{"availability"}, "auto")

	rOff, err := SolveWithOptions(off, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("test")
	rAuto, err := SolveWithOptions(auto, SolveOptions{Recorder: tr})
	if err != nil {
		t.Fatal(err)
	}
	if len(rOff) != 1 || len(rAuto) != 1 {
		t.Fatalf("results: off=%v auto=%v", rOff, rAuto)
	}
	if diff := math.Abs(rOff[0].Value - rAuto[0].Value); diff > 1e-12 {
		t.Fatalf("availability differs: off=%.15g auto=%.15g (diff %g)",
			rOff[0].Value, rAuto[0].Value, diff)
	}
	root := tr.Finish()
	lump := findLumpSpan(root)
	if lump == nil {
		t.Fatal("no relstruct.lump span in trace")
	}
	if got, _ := lump.Attr("lump_states"); got != int64(1<<n) {
		t.Errorf("lump_states = %v, want %d", got, 1<<n)
	}
	// The failure-count chain of n machines has n+1 states.
	if got, _ := lump.Attr("lump_blocks"); got != int64(n+1) {
		t.Errorf("lump_blocks = %v, want %d", got, n+1)
	}
}

// TestAutoLumpMTTAMatchesDetailed checks the pre-pass is exact for the
// absorbing measure too: MTTA into the all-down state from the all-up
// state must not change under lumping.
func TestAutoLumpMTTAMatchesDetailed(t *testing.T) {
	const n = 4
	off := farmSpec(n, 0.05, 1.0, n-1, []string{"mtta"}, "off")
	auto := farmSpec(n, 0.05, 1.0, n-1, []string{"mtta"}, "auto")
	// MTTA needs the absorbing state to actually absorb: drop its repair.
	strip := func(s *Spec) {
		full := "m1111"
		keep := s.CTMC.Transitions[:0]
		for _, tr := range s.CTMC.Transitions {
			if tr.From != full {
				keep = append(keep, tr)
			}
		}
		s.CTMC.Transitions = keep
	}
	strip(off)
	strip(auto)

	rOff, err := SolveWithOptions(off, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rAuto, err := SolveWithOptions(auto, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rOff[0].Value-rAuto[0].Value) > 1e-9*rOff[0].Value {
		t.Fatalf("mtta differs: off=%.15g auto=%.15g", rOff[0].Value, rAuto[0].Value)
	}
	if rOff[0].Value <= 0 {
		t.Fatalf("mtta = %g, want positive", rOff[0].Value)
	}
}

// TestAutoLumpSkipsDetailMeasures: per-state measures are not preserved
// by aggregation, so requesting one must disable the pre-pass.
func TestAutoLumpSkipsDetailMeasures(t *testing.T) {
	spec := farmSpec(3, 0.01, 1.0, 1, []string{"availability", "steadystate"}, "auto")
	tr := obs.NewTrace("test")
	rs, err := SolveWithOptions(spec, SolveOptions{Recorder: tr})
	if err != nil {
		t.Fatal(err)
	}
	if findLumpSpan(tr.Finish()) != nil {
		t.Fatal("lump pre-pass ran despite a per-state measure")
	}
	// The steadystate detail must cover the full 2^3 state space.
	for _, r := range rs {
		if r.Measure == "steadystate" && len(r.Detail) != 8 {
			t.Fatalf("steadystate detail has %d states, want 8", len(r.Detail))
		}
	}
}

// TestAutoLumpOffByRequest: lump "off" must leave the trace lump-free.
func TestAutoLumpOffByRequest(t *testing.T) {
	spec := farmSpec(3, 0.01, 1.0, 1, []string{"availability"}, "off")
	tr := obs.NewTrace("test")
	if _, err := SolveWithOptions(spec, SolveOptions{Recorder: tr}); err != nil {
		t.Fatal(err)
	}
	if findLumpSpan(tr.Finish()) != nil {
		t.Fatal("lump pre-pass ran despite lump: off")
	}
}

// TestLumpModeValidation: an unknown lump mode is a lint error.
func TestLumpModeValidation(t *testing.T) {
	spec := farmSpec(2, 0.01, 1.0, 1, []string{"availability"}, "sometimes")
	ds, _ := Lint(spec)
	found := false
	for _, d := range ds {
		if d.Path == "ctmc.lump" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no ctmc.lump diagnostic in %v", ds)
	}
}

// findLumpSpan locates the relstruct.lump span in a trace tree.
func findLumpSpan(s *obs.Span) *obs.Span {
	if s == nil {
		return nil
	}
	if s.Name == "relstruct.lump" {
		return s
	}
	for _, c := range s.Children {
		if got := findLumpSpan(c); got != nil {
			return got
		}
	}
	return nil
}
