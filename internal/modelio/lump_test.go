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

// threeComponentSpec is three identical up/degraded/down components
// (u→g, u→d, g→d, g→u, d→u): 27 states that lump to 10 blocks, most of
// which reach three or more other blocks.
func threeComponentSpec(measure string) *Spec {
	local := []struct {
		from, to byte
		rate     float64
	}{{'u', 'g', 0.3}, {'u', 'd', 0.05}, {'g', 'd', 0.4}, {'g', 'u', 1.1}, {'d', 'u', 0.7}}
	spec := &CTMCSpec{Measures: []string{measure}}
	for s := 0; s < 27; s++ {
		st := []byte{"ugd"[s%3], "ugd"[s/3%3], "ugd"[s/9]}
		if string(st) != "ddd" {
			spec.UpStates = append(spec.UpStates, string(st))
		}
		for i := range st {
			for _, l := range local {
				if st[i] == l.from {
					to := []byte(string(st))
					to[i] = l.to
					spec.Transitions = append(spec.Transitions, CTMCTransition{From: string(st), To: string(to), Rate: l.rate})
				}
			}
		}
	}
	switch measure {
	case "availability":
		spec.Solver = "sor"
	case "mtta":
		spec.UpStates = nil
		spec.Initial, spec.Absorbing = "uuu", []string{"ddd"}
	}
	return &Spec{Type: "ctmc", Name: "three components", CTMC: spec}
}

// TestLumpedSolvesAreDeterministic solves a chain whose lumped blocks
// each reach several others 20 times per path — SOR availability, mtta,
// and mtta through a compiled plan at other rates (the /jobs sample
// path) — and requires one bit pattern each: the lumped chain's
// transition order, and so every sum over it, must not follow map order.
func TestLumpedSolvesAreDeterministic(t *testing.T) {
	plan, err := CompileCTMC(threeComponentSpec("mtta"))
	if err != nil {
		t.Fatal(err)
	}
	if plan.lumped == nil || plan.lumped.NumStates() != 10 {
		t.Fatalf("three-component chain did not lump to 10 blocks")
	}
	rates := plan.Rates()
	for k := range rates {
		rates[k] *= 1.3
	}
	ev := plan.Evaluator()
	for _, tc := range []struct {
		name  string
		solve func() ([]Result, error)
	}{
		{"sor-availability", func() ([]Result, error) { return Solve(threeComponentSpec("availability")) }},
		{"mtta", func() ([]Result, error) { return Solve(threeComponentSpec("mtta")) }},
		{"plan-mtta", func() ([]Result, error) { return ev.Solve(rates, SolveOptions{}) }},
	} {
		seen := map[uint64]bool{}
		for run := 0; run < 20; run++ {
			res, err := tc.solve()
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			seen[math.Float64bits(res[0].Value)] = true
		}
		if len(seen) != 1 {
			t.Errorf("%s: %d bit patterns in 20 solves, want 1", tc.name, len(seen))
		}
	}
}
