package lint

import (
	"fmt"
	"math"

	"repro/internal/modelio"
	"repro/internal/relstruct"
)

// CheckCTMC runs the CT checks on a CTMC description and, when none of
// them reports an error, the STR checks (structure computed over bad
// rates or dangling states would mislead). A steadystate or availability
// measure strengthens the structural checks.
//
// It numbers the states in order of first appearance and analyzes the
// chain once with relstruct.Analyze: every transition that names both
// endpoints, in document order, self-loops, repeats and bad rates
// included, seeded with the up and absorbing sets. That report answers
// CT005–CT007 and every STR code, and CheckCTMC returns it whatever the
// diagnostics say; it is nil only when no transition names both states.
func CheckCTMC(m *modelio.CTMCSpec) ([]Diagnostic, *relstruct.StructReport) {
	var ds []Diagnostic
	states := map[string]int{} // name -> index in order of first appearance
	var names []string
	intern := func(name string) int {
		if i, ok := states[name]; ok {
			return i
		}
		i := len(names)
		states[name] = i
		names = append(names, name)
		return i
	}
	trans := make([]relstruct.Transition, 0, len(m.Transitions))
	seen := make(map[[2]int]bool, len(m.Transitions))
	for i, tr := range m.Transitions {
		if tr.From == "" || tr.To == "" {
			ds = errf(ds, CodeCTMCEmptyState, transitionPath(i), "transition must name both endpoint states")
			continue
		}
		from, to := intern(tr.From), intern(tr.To)
		trans = append(trans, relstruct.Transition{From: from, To: to, Weight: tr.Rate})
		if tr.Rate <= 0 || math.IsNaN(tr.Rate) || math.IsInf(tr.Rate, 0) {
			ds = errf(ds, CodeCTMCBadRate, transitionPath(i)+".rate",
				"rate %g is not a positive finite number", tr.Rate)
		}
		if from == to {
			ds = warnf(ds, CodeCTMCSelfLoop, transitionPath(i),
				"self-loop on state %q has no effect in a CTMC and is dropped by the solver", tr.From)
			continue
		}
		key := [2]int{from, to}
		if seen[key] {
			ds = warnf(ds, CodeCTMCDuplicate, transitionPath(i),
				"duplicate transition %s -> %s; rates will be summed", tr.From, tr.To)
		}
		seen[key] = true
	}

	known := func(name, path string) {
		if _, ok := states[name]; !ok {
			ds = errf(ds, CodeCTMCUnknownState, path,
				"state %q does not appear in any transition", name)
		}
	}
	if m.Initial != "" {
		known(m.Initial, "ctmc.initial")
	}
	for i, s := range m.UpStates {
		known(s, fmt.Sprintf("ctmc.upStates[%d]", i))
	}
	for i, s := range m.Absorbing {
		known(s, fmt.Sprintf("ctmc.absorbing[%d]", i))
	}

	if len(names) == 0 {
		return ds, nil
	}
	rep, err := relstruct.Analyze(relstruct.Input{
		States: len(names),
		Names:  names,
		Trans:  trans,
		Seed:   relstruct.SeedSets(names, m.UpStates, m.Absorbing),
	})
	if err != nil {
		// Analyze rejects only malformed input, and this is well formed.
		return ds, nil
	}

	// Reachability from the initial state ("" is never a state).
	var reach []bool
	if init, ok := states[m.Initial]; ok {
		reach = rep.Reachable(init)
		for i, r := range reach {
			if !r {
				ds = warnf(ds, CodeCTMCUnreachable, "ctmc",
					"state %q is unreachable from initial state %q", names[i], m.Initial)
			}
		}
	}

	declared := map[string]bool{}
	for _, s := range m.Absorbing {
		declared[s] = true
	}

	// Absorbing states: single-state closed classes, which are exactly
	// the states with no transition to another state.
	steady := needsSteadyState(m)
	if steady {
		for _, s := range rep.AbsorbingStates {
			if !declared[s] {
				ds = warnf(ds, CodeCTMCAbsorbing, "ctmc",
					"state %q is absorbing; the steady-state/availability result will concentrate all probability in it", s)
			}
		}
	}

	// More than one closed communicating class means the steady-state
	// distribution depends on the initial state and the linear solve is
	// singular in a way availability models do not expect. Classes made
	// entirely of declared absorbing states are the intended targets of
	// MTTA-style measures.
	closed := 0
	for _, cl := range rep.Classes {
		if cl.Recurrent && !allDeclared(cl.States, declared) {
			closed++
		}
	}
	if closed > 1 {
		sev := warnf
		if steady {
			sev = errf
		}
		ds = sev(ds, CodeCTMCReducible, "ctmc",
			"chain has %d closed communicating classes; the long-run distribution is not unique", closed)
	}

	if !HasErrors(ds) {
		var unreachable []string
		if reach != nil {
			unreachable = unreachableRecurrent(rep, reach)
		}
		ds = append(ds, checkStructReport(rep, m, unreachable)...)
	}
	return ds, rep
}

// needsSteadyState reports whether m requests a steadystate or
// availability measure, whose answer the long-run structure decides.
func needsSteadyState(m *modelio.CTMCSpec) bool {
	for _, meas := range m.Measures {
		if meas == "steadystate" || meas == "availability" {
			return true
		}
	}
	return false
}

// transitionPath locates the i-th transition; checks build it only when
// they report.
func transitionPath(i int) string {
	return fmt.Sprintf("ctmc.transitions[%d]", i)
}

func allDeclared(states []string, declared map[string]bool) bool {
	for _, s := range states {
		if !declared[s] {
			return false
		}
	}
	return true
}
