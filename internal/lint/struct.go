package lint

import (
	"fmt"
	"strings"

	"repro/internal/relstruct"
)

// This file translates internal/relstruct's static structural analysis
// into STR-coded diagnostics. CheckCTMC runs the translation on the one
// report it builds, and only when the basic CT checks found no errors
// (structure computed over garbage rates would mislead). None of the
// findings is error severity: structure is advice — the CT006-style
// escalation for genuinely unsolvable shapes stays in CheckCTMC.

// checkStructReport turns a chain's structural report into STR
// diagnostics. unreachable names the first state of each recurrent class
// the initial state cannot reach (nil without a known initial state).
func checkStructReport(rep *relstruct.StructReport, m CTMC, unreachable []string) []Diagnostic {
	// STR001 is retired: reducibility is CheckCTMC's CT006, reported once.
	var ds []Diagnostic

	// STR002: transient mass under a steady-state measure.
	if m.NeedsSteadyState && rep.TransientStates > 0 {
		ds = warnf(ds, CodeStructTransientMass, "ctmc",
			"%d transient state(s) (e.g. %s) carry zero steady-state probability; steadystate/availability results ignore them",
			rep.TransientStates, exampleList(transientExamples(rep)))
	}

	// STR003: a recurrent class the initial state can never enter.
	if len(unreachable) > 0 {
		ds = warnf(ds, CodeStructUnreachableClass, "ctmc",
			"%d recurrent class(es) (entered via %s) are unreachable from initial state %q and can never accumulate probability",
			len(unreachable), exampleList(unreachable), m.Initial)
	}

	// STR004: stiffness, per recurrent class.
	for _, cl := range rep.Classes {
		if cl.Recurrent && cl.RateRatio >= relstruct.StiffThreshold {
			ds = warnf(ds, CodeStructStiff, "ctmc",
				"recurrent class containing %q is stiff (rate-ratio spread %.3g); iterative solvers may stall — prefer solver \"gth\" or \"chain\"",
				cl.States[0], cl.RateRatio)
		}
	}

	// STR005: exact lumpability.
	if rep.Lumping.Lumpable {
		ds = infof(ds, CodeStructLumpable, "ctmc",
			"%d states lump exactly into %d macro-states (reduction %.3gx); availability/mtta solves aggregate automatically",
			rep.States, rep.Lumping.Blocks, rep.Lumping.Ratio)
	}

	// STR006: periodicity (discrete chains only).
	if rep.Discrete {
		for _, cl := range rep.Classes {
			if cl.Recurrent && cl.Period > 1 {
				ds = warnf(ds, CodeStructPeriodic, "ctmc",
					"recurrent class containing %q is periodic (period %d); power iteration will not converge — use an exact method",
					cl.States[0], cl.Period)
			}
		}
	}

	// STR007: transient initial state.
	if m.Initial != "" {
		for _, cl := range rep.Classes {
			if !cl.Recurrent && containsState(cl.States, m.Initial) {
				ds = infof(ds, CodeStructTransientInitial, "ctmc.initial",
					"initial state %q is transient; the chain leaves it forever with probability 1 (mtta/transient measures capture this, steady state does not)",
					m.Initial)
				break
			}
		}
	}

	// STR008: independent sub-chains.
	if rep.Components > 1 {
		ds = warnf(ds, CodeStructDisconnected, "ctmc",
			"chain splits into %d disconnected components; solve them as separate models or check for missing transitions",
			rep.Components)
	}

	// STR009: the distilled solver hint.
	if rep.Hint.Method != "" || rep.Hint.Reduce != "" {
		ds = infof(ds, CodeStructSolverHint, "ctmc",
			"structural solver hint: %s", hintText(rep.Hint))
	}

	// STR010: rate span beyond double-precision comfort.
	if rep.Stiffness.Ratio >= relstruct.ExtremeSpanThreshold {
		ds = warnf(ds, CodeStructRateSpan, "ctmc",
			"transition rates span %.3g to %.3g (ratio %.3g); consider rescaling time units before trusting iterative results",
			rep.Stiffness.RateMin, rep.Stiffness.RateMax, rep.Stiffness.Ratio)
	}
	return ds
}

// hintText renders a relstruct.Hint for a diagnostic message.
func hintText(h relstruct.Hint) string {
	var parts []string
	if h.Method != "" {
		parts = append(parts, fmt.Sprintf("try method %q first", h.Method))
	}
	if h.Reduce != "" {
		parts = append(parts, fmt.Sprintf("reduce via %q", h.Reduce))
	}
	if h.Reason != "" {
		parts = append(parts, "("+h.Reason+")")
	}
	return strings.Join(parts, " ")
}

// transientExamples returns the first state of each transient class.
func transientExamples(rep *relstruct.StructReport) []string {
	var out []string
	for _, cl := range rep.Classes {
		if !cl.Recurrent {
			out = append(out, cl.States[0])
		}
	}
	return out
}

// unreachableRecurrent lists the first state of every recurrent class
// with no member in reach.
func unreachableRecurrent(rep *relstruct.StructReport, reach []bool) []string {
	hit := make([]bool, len(rep.Classes))
	for s, c := range rep.ClassOf() {
		if reach[s] {
			hit[c] = true
		}
	}
	var out []string
	for i, cl := range rep.Classes {
		if cl.Recurrent && !hit[i] {
			out = append(out, cl.States[0])
		}
	}
	return out
}

// exampleList joins up to four names for a message.
func exampleList(names []string) string {
	const maxExamples = 4
	quoted := make([]string, 0, maxExamples+1)
	for i, n := range names {
		if i == maxExamples {
			quoted = append(quoted, "…")
			break
		}
		quoted = append(quoted, fmt.Sprintf("%q", n))
	}
	return strings.Join(quoted, ", ")
}

func containsState(states []string, s string) bool {
	for _, x := range states {
		if x == s {
			return true
		}
	}
	return false
}
