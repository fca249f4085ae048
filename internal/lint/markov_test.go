package lint

import (
	"strings"
	"testing"

	"repro/internal/modelio"
)

// codes extracts the set of diagnostic codes from a report.
func codes(ds []Diagnostic) map[string]int {
	m := map[string]int{}
	for _, d := range ds {
		m[d.Code]++
	}
	return m
}

// ctmcDiags returns CheckCTMC's diagnostics without its report.
func ctmcDiags(m *modelio.CTMCSpec) []Diagnostic {
	ds, _ := CheckCTMC(m)
	return ds
}

// wantCode asserts the report contains the code at the given severity.
func wantCode(t *testing.T, ds []Diagnostic, code string, sev Severity) Diagnostic {
	t.Helper()
	for _, d := range ds {
		if d.Code == code {
			if d.Severity != sev {
				t.Errorf("%s reported at severity %v, want %v (%s)", code, d.Severity, sev, d)
			}
			return d
		}
	}
	t.Errorf("missing diagnostic %s in report:\n%v", code, ds)
	return Diagnostic{}
}

// wantNoCode asserts the report does not contain the code.
func wantNoCode(t *testing.T, ds []Diagnostic, code string) {
	t.Helper()
	for _, d := range ds {
		if d.Code == code {
			t.Errorf("unexpected diagnostic %s: %s", code, d)
		}
	}
}

func TestCheckCTMCBadRate(t *testing.T) {
	ds := ctmcDiags(&modelio.CTMCSpec{Transitions: []modelio.CTMCTransition{
		{From: "up", To: "down", Rate: -0.5},
		{From: "down", To: "up", Rate: 1},
	}})
	d := wantCode(t, ds, CodeCTMCBadRate, SevError)
	if d.Path != "ctmc.transitions[0].rate" {
		t.Errorf("bad path %q", d.Path)
	}
}

func TestCheckCTMCSelfLoopAndDuplicate(t *testing.T) {
	ds := ctmcDiags(&modelio.CTMCSpec{Transitions: []modelio.CTMCTransition{
		{From: "a", To: "a", Rate: 1},
		{From: "a", To: "b", Rate: 1},
		{From: "a", To: "b", Rate: 2},
		{From: "b", To: "a", Rate: 1},
	}})
	wantCode(t, ds, CodeCTMCSelfLoop, SevError)
	wantCode(t, ds, CodeCTMCDuplicate, SevWarning)
}

func TestCheckCTMCUnknownState(t *testing.T) {
	ds := ctmcDiags(&modelio.CTMCSpec{
		Transitions: []modelio.CTMCTransition{{From: "a", To: "b", Rate: 1}, {From: "b", To: "a", Rate: 1}},
		Initial:     "nope",
		UpStates:    []string{"a", "ghost"},
		Absorbing:   []string{"b"},
	})
	if got := codes(ds)[CodeCTMCUnknownState]; got != 2 {
		t.Fatalf("want 2 CT004 diagnostics (initial, upStates), got %d: %v", got, ds)
	}
}

func TestCheckCTMCEmptyState(t *testing.T) {
	ds := ctmcDiags(&modelio.CTMCSpec{Transitions: []modelio.CTMCTransition{{From: "", To: "b", Rate: 1}}})
	wantCode(t, ds, CodeCTMCEmptyState, SevError)
}

func TestCheckCTMCUnreachable(t *testing.T) {
	ds := ctmcDiags(&modelio.CTMCSpec{
		Transitions: []modelio.CTMCTransition{
			{From: "a", To: "b", Rate: 1},
			{From: "b", To: "a", Rate: 1},
			{From: "orphan", To: "a", Rate: 1},
		},
		Initial: "a",
	})
	d := wantCode(t, ds, CodeCTMCUnreachable, SevWarning)
	if !strings.Contains(d.Msg, "orphan") {
		t.Errorf("unreachable message should name the state: %s", d.Msg)
	}
}

func TestCheckCTMCReducible(t *testing.T) {
	// Two disjoint recurrent classes {a,b} and {c,d}.
	m := &modelio.CTMCSpec{
		Transitions: []modelio.CTMCTransition{
			{From: "a", To: "b", Rate: 1}, {From: "b", To: "a", Rate: 1},
			{From: "c", To: "d", Rate: 1}, {From: "d", To: "c", Rate: 1},
		},
	}
	m.Measures = []string{"steadystate"}
	wantCode(t, ctmcDiags(m), CodeCTMCReducible, SevError)
	m.Measures = nil
	wantCode(t, ctmcDiags(m), CodeCTMCReducible, SevWarning)
}

func TestCheckCTMCAbsorbingInAvailabilityModel(t *testing.T) {
	m := &modelio.CTMCSpec{
		Transitions: []modelio.CTMCTransition{{From: "up", To: "dead", Rate: 0.01}},
		Measures:    []string{"steadystate"},
	}
	wantCode(t, ctmcDiags(m), CodeCTMCAbsorbing, SevWarning)

	// Declaring the state absorbing (an MTTA model) silences the warning.
	m.Measures = nil
	m.Absorbing = []string{"dead"}
	wantNoCode(t, ctmcDiags(m), CodeCTMCAbsorbing)

	// The sor solver rejects an absorbing state, declared or not.
	m.Measures = []string{"steadystate"}
	m.Solver = "sor"
	wantCode(t, ctmcDiags(m), CodeCTMCAbsorbing, SevError)
}

func TestCheckCTMCNoStates(t *testing.T) {
	m := &modelio.CTMCSpec{Measures: []string{"steadystate"}}
	d := wantCode(t, ctmcDiags(m), CodeCTMCNoStates, SevError)
	if d.Path != "ctmc.transitions" {
		t.Errorf("bad path %q", d.Path)
	}
	// With nothing to measure, the empty chain solves to no results.
	m.Measures = nil
	wantNoCode(t, ctmcDiags(m), CodeCTMCNoStates)
}

func TestCheckCTMCCleanModel(t *testing.T) {
	ds := ctmcDiags(&modelio.CTMCSpec{
		Transitions: []modelio.CTMCTransition{
			{From: "2up", To: "1up", Rate: 0.002},
			{From: "1up", To: "0up", Rate: 0.001},
			{From: "1up", To: "2up", Rate: 0.5},
			{From: "0up", To: "1up", Rate: 0.5},
		},
		Initial:  "2up",
		UpStates: []string{"2up", "1up"},
		Measures: []string{"steadystate"},
	})
	if len(ds) != 0 {
		t.Errorf("clean CTMC produced diagnostics: %v", ds)
	}
}
