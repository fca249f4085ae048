package lint

import (
	"strings"
	"testing"

	"repro/internal/modelio"
)

// structDiags runs the STR translation on the report of m's chain, as
// CheckCTMC numbers and seeds it, whatever the CT checks would say.
func structDiags(m *modelio.CTMCSpec) []Diagnostic {
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
	ds := structDiags(&modelio.CTMCSpec{
		Transitions: []modelio.CTMCTransition{
			{From: "up", To: "down", Rate: 0.01},
			{From: "down", To: "up", Rate: 1.0},
		},
	})
	if len(ds) != 0 {
		t.Fatalf("clean irreducible chain produced findings: %v", ds)
	}
}

func TestStructReducibleAndTransientMass(t *testing.T) {
	m := &modelio.CTMCSpec{
		Transitions: []modelio.CTMCTransition{
			{From: "start", To: "a", Rate: 1},
			{From: "start", To: "b", Rate: 1},
			{From: "a", To: "a2", Rate: 1}, {From: "a2", To: "a", Rate: 1},
			{From: "b", To: "b2", Rate: 1}, {From: "b2", To: "b", Rate: 1},
		},
		Measures: []string{"steadystate"},
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
	m := &modelio.CTMCSpec{
		Transitions: []modelio.CTMCTransition{
			{From: "ok", To: "deg", Rate: 0.2},
			{From: "deg", To: "ok", Rate: 1.0},
			{From: "deg", To: "failed", Rate: 0.1},
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
	m := &modelio.CTMCSpec{
		Transitions: []modelio.CTMCTransition{
			{From: "a", To: "b", Rate: 1}, {From: "b", To: "a", Rate: 1},
			{From: "c", To: "d", Rate: 1}, {From: "d", To: "c", Rate: 1},
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
	m := &modelio.CTMCSpec{
		Transitions: []modelio.CTMCTransition{
			{From: "up", To: "down", Rate: 1e-9},
			{From: "down", To: "up", Rate: 5e6},
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
	m := &modelio.CTMCSpec{
		Transitions: []modelio.CTMCTransition{
			{From: "00", To: "01", Rate: lam}, {From: "00", To: "10", Rate: lam},
			{From: "01", To: "11", Rate: lam}, {From: "10", To: "11", Rate: lam},
			{From: "01", To: "00", Rate: mu}, {From: "10", To: "00", Rate: mu},
			{From: "11", To: "01", Rate: mu}, {From: "11", To: "10", Rate: mu},
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
	m := &modelio.CTMCSpec{
		Transitions: []modelio.CTMCTransition{
			{From: "start", To: "a", Rate: 1e-9},
			{From: "start", To: "b", Rate: 5e6},
			{From: "a", To: "a2", Rate: 1}, {From: "a2", To: "a", Rate: 1},
			{From: "b", To: "b2", Rate: 1}, {From: "b2", To: "b", Rate: 1},
			{From: "c", To: "d", Rate: 1}, {From: "d", To: "c", Rate: 1},
		},
		Initial:  "start",
		Measures: []string{"steadystate"},
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
	if ds := structDiags(&modelio.CTMCSpec{}); len(ds) != 0 {
		t.Fatalf("empty chain produced findings: %v", ds)
	}
	// Transitions with empty endpoints are skipped rather than crashing.
	if ds := structDiags(&modelio.CTMCSpec{Transitions: []modelio.CTMCTransition{{From: "", To: "x", Rate: 1}}}); len(ds) != 0 {
		t.Fatalf("broken transitions produced findings: %v", ds)
	}
}
