package lint

import (
	"fmt"
	"strings"

	"repro/internal/relstruct"
)

// This file translates internal/relstruct's static structural analysis
// into STR-coded diagnostics. The checks only run when the basic CT
// checks found no errors (structure computed over garbage rates would
// mislead), and none of them is error severity: structure is advice —
// the CT006-style escalation for genuinely unsolvable shapes stays in
// CheckCTMC.

// CheckCTMCStructure analyzes the chain's transition graph (SCC
// condensation, stiffness, lumpability) and reports the structural
// findings. The lumpability seed separates the up states and the
// declared absorbing states, matching what the automatic lumping
// pre-pass in modelio preserves.
func CheckCTMCStructure(m CTMC) []Diagnostic {
	var nts []relstruct.NamedTransition
	for _, tr := range m.Transitions {
		if tr.From == "" || tr.To == "" {
			continue
		}
		nts = append(nts, relstruct.NamedTransition{From: tr.From, To: tr.To, Weight: tr.Rate})
	}
	if len(nts) == 0 {
		return nil
	}
	in := relstruct.FromNamed(nts, false)
	in.Seed = relstruct.SeedSets(in.Names, m.UpStates, m.Absorbing)
	rep, err := relstruct.Analyze(in)
	if err != nil {
		return nil
	}
	return CheckStructReport(rep, m)
}

// CheckStructReport turns a precomputed structural report into STR
// diagnostics; CheckCTMCStructure is the usual entry, but callers that
// already hold a report (discrete chains, relcli analyze) can reuse it.
func CheckStructReport(rep *relstruct.StructReport, m CTMC) []Diagnostic {
	// STR001 is retired: reducibility is CheckCTMC's CT006, reported once.
	var ds []Diagnostic

	// STR002: transient mass under a steady-state measure.
	if m.NeedsSteadyState && rep.TransientStates > 0 {
		ds = warnf(ds, CodeStructTransientMass, "ctmc",
			"%d transient state(s) (e.g. %s) carry zero steady-state probability; steadystate/availability results ignore them",
			rep.TransientStates, exampleList(transientExamples(rep)))
	}

	// STR003: a recurrent class the initial state can never enter.
	if m.Initial != "" {
		if unreachable := unreachableRecurrent(rep, m); len(unreachable) > 0 {
			ds = warnf(ds, CodeStructUnreachableClass, "ctmc",
				"%d recurrent class(es) (entered via %s) are unreachable from initial state %q and can never accumulate probability",
				len(unreachable), exampleList(unreachable), m.Initial)
		}
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

// unreachableRecurrent lists a representative of every recurrent class
// with no path from the initial state.
func unreachableRecurrent(rep *relstruct.StructReport, m CTMC) []string {
	adj := map[string][]string{}
	for _, tr := range m.Transitions {
		if tr.From == "" || tr.To == "" {
			continue
		}
		adj[tr.From] = append(adj[tr.From], tr.To)
	}
	if _, ok := adj[m.Initial]; !ok {
		// The initial state may still be a sink that appears only as a
		// target; reachability then covers just itself.
		found := false
		for _, tr := range m.Transitions {
			if tr.To == m.Initial || tr.From == m.Initial {
				found = true
				break
			}
		}
		if !found {
			return nil
		}
	}
	reach := map[string]bool{m.Initial: true}
	stack := []string{m.Initial}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if !reach[w] {
				reach[w] = true
				stack = append(stack, w)
			}
		}
	}
	var out []string
	for _, cl := range rep.Classes {
		if !cl.Recurrent {
			continue
		}
		hit := false
		for _, s := range cl.States {
			if reach[s] {
				hit = true
				break
			}
		}
		if !hit {
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
