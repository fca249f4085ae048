package lint

import (
	"strings"
	"testing"
)

// structDiags runs the STR translation on the report of m's chain, as
// CheckCTMC numbers and seeds it, whatever the CT checks would say.
func structDiags(m CTMC) []Diagnostic {
	rep, err := refReport(m)
	if err != nil {
		return nil
	}
	var unreachable []string
	for i, name := range rep.StateNames() {
		if name == m.Initial {
			unreachable = unreachableRecurrent(rep, rep.Reachable(i))
		}
	}
	return checkStructReport(rep, m, unreachable)
}

// codesOf extracts the codes of a diagnostic list.
func codesOf(ds []Diagnostic) map[string]int {
	m := map[string]int{}
	for _, d := range ds {
		m[d.Code]++
	}
	return m
}

func TestStructCleanChainNoFindings(t *testing.T) {
	ds := structDiags(CTMC{
		Transitions: []Transition{
			{"up", "down", 0.01},
			{"down", "up", 1.0},
		},
	})
	if len(ds) != 0 {
		t.Fatalf("clean irreducible chain produced findings: %v", ds)
	}
}

func TestStructReducibleAndTransientMass(t *testing.T) {
	m := CTMC{
		Transitions: []Transition{
			{"start", "a", 1},
			{"start", "b", 1},
			{"a", "a2", 1}, {"a2", "a", 1},
			{"b", "b2", 1}, {"b2", "b", 1},
		},
		NeedsSteadyState: true,
	}
	ds := structDiags(m)
	codes := codesOf(ds)
	if codes[CodeStructTransientMass] != 1 {
		t.Fatalf("want one STR002, got %v", ds)
	}
}

func TestStructDeclaredAbsorbingNotReducible(t *testing.T) {
	// One recurrent class plus a declared-absorbing failure state: an
	// intentional MTTA shape, not a reducibility finding.
	m := CTMC{
		Transitions: []Transition{
			{"ok", "deg", 0.2},
			{"deg", "ok", 1.0},
			{"deg", "failed", 0.1},
		},
		Initial:   "ok",
		Absorbing: []string{"failed"},
	}
	ds := structDiags(m)
	codes := codesOf(ds)
	if codes[CodeStructTransientInitial] != 1 {
		t.Fatalf("want STR007 for transient initial, got %v", ds)
	}
	if codes[CodeStructSolverHint] != 1 {
		t.Fatalf("want STR009 hint, got %v", ds)
	}
}

func TestStructUnreachableRecurrentClass(t *testing.T) {
	m := CTMC{
		Transitions: []Transition{
			{"a", "b", 1}, {"b", "a", 1},
			{"c", "d", 1}, {"d", "c", 1},
		},
		Initial: "a",
	}
	ds := structDiags(m)
	codes := codesOf(ds)
	if codes[CodeStructUnreachableClass] != 1 {
		t.Fatalf("want STR003, got %v", ds)
	}
	if codes[CodeStructDisconnected] != 1 {
		t.Fatalf("want STR008, got %v", ds)
	}
}

func TestStructStiffAndRateSpan(t *testing.T) {
	m := CTMC{
		Transitions: []Transition{
			{"up", "down", 1e-9},
			{"down", "up", 5e6},
		},
	}
	ds := structDiags(m)
	codes := codesOf(ds)
	if codes[CodeStructStiff] != 1 {
		t.Fatalf("want STR004, got %v", ds)
	}
	if codes[CodeStructRateSpan] != 1 {
		t.Fatalf("want STR010, got %v", ds)
	}
	if codes[CodeStructSolverHint] != 1 {
		t.Fatalf("want STR009, got %v", ds)
	}
	for _, d := range ds {
		if d.Code == CodeStructSolverHint && !strings.Contains(d.Msg, `"gth"`) {
			t.Fatalf("hint does not suggest gth: %q", d.Msg)
		}
	}
}

func TestStructLumpableInfo(t *testing.T) {
	lam, mu := 0.01, 1.0
	m := CTMC{
		Transitions: []Transition{
			{"00", "01", lam}, {"00", "10", lam},
			{"01", "11", lam}, {"10", "11", lam},
			{"01", "00", mu}, {"10", "00", mu},
			{"11", "01", mu}, {"11", "10", mu},
		},
		UpStates: []string{"00", "01", "10"},
	}
	ds := structDiags(m)
	codes := codesOf(ds)
	if codes[CodeStructLumpable] != 1 {
		t.Fatalf("want STR005, got %v", ds)
	}
	if codes[CodeStructSolverHint] != 1 {
		t.Fatalf("want STR009 lump hint, got %v", ds)
	}
}

func TestStructOnlyAdvisorySeverities(t *testing.T) {
	// Structure findings are advice: none may be error severity, so they
	// can never block a solve on their own.
	m := CTMC{
		Transitions: []Transition{
			{"start", "a", 1e-9},
			{"start", "b", 5e6},
			{"a", "a2", 1}, {"a2", "a", 1},
			{"b", "b2", 1}, {"b2", "b", 1},
			{"c", "d", 1}, {"d", "c", 1},
		},
		Initial:          "start",
		NeedsSteadyState: true,
	}
	ds := structDiags(m)
	if len(ds) == 0 {
		t.Fatal("expected findings")
	}
	for _, d := range ds {
		if d.Severity == SevError {
			t.Fatalf("structural finding at error severity: %v", d)
		}
	}
}

func TestStructEmptyAndBrokenInputs(t *testing.T) {
	if ds := structDiags(CTMC{}); len(ds) != 0 {
		t.Fatalf("empty chain produced findings: %v", ds)
	}
	// Transitions with empty endpoints are skipped rather than crashing.
	if ds := structDiags(CTMC{Transitions: []Transition{{"", "x", 1}}}); len(ds) != 0 {
		t.Fatalf("broken transitions produced findings: %v", ds)
	}
}
