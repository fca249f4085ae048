package lint

import (
	"strings"
	"testing"
)

func TestModelRunsAllAnalyzers(t *testing.T) {
	in := Input{
		CTMC: &CTMC{Transitions: []Transition{{From: "a", To: "b", Rate: -1}, {From: "b", To: "a", Rate: 1}}},
		FaultTree: &FaultTree{
			Events: []FTEvent{{Name: "e", Prob: 2}},
			Top:    &Gate{Event: "e"},
		},
	}
	ds := Model(in)
	wantCode(t, ds, CodeCTMCBadRate, SevError)
	wantCode(t, ds, CodeFTProbRange, SevError)
}

// TestModelReportsReducibilityOnce: a chain with two closed classes and
// no steady-state measure is one defect, reported once as a CT006
// warning. The structure pass used to repeat it as STR001.
func TestModelReportsReducibilityOnce(t *testing.T) {
	ds := Model(Input{CTMC: &CTMC{
		Transitions: []Transition{
			{"start", "a", 1}, {"start", "b", 1},
			{"a", "a2", 1}, {"a2", "a", 1},
			{"b", "b2", 1}, {"b2", "b", 1},
		},
		Initial: "start",
	}})
	var reducible []Diagnostic
	for _, d := range ds {
		if d.Code == CodeCTMCReducible || d.Code == "STR001" {
			reducible = append(reducible, d)
		}
	}
	if len(reducible) != 1 || reducible[0].Code != CodeCTMCReducible || reducible[0].Severity != SevWarning {
		t.Fatalf("want exactly one CT006 warning, got %v (all findings: %v)", reducible, ds)
	}
}

func TestModelCleanInputIsEmpty(t *testing.T) {
	ds := Model(Input{RelGraph: &RelGraph{
		Edges:  []RGEdge{{Name: "e", From: "s", To: "t", Rel: 0.9}},
		Source: "s", Target: "t",
	}})
	if len(ds) != 0 {
		t.Errorf("clean input produced diagnostics: %v", ds)
	}
}

func TestSortOrdersErrorsFirst(t *testing.T) {
	ds := []Diagnostic{
		{Code: "B", Severity: SevWarning, Path: "b"},
		{Code: "A", Severity: SevError, Path: "z"},
		{Code: "C", Severity: SevError, Path: "a"},
	}
	Sort(ds)
	if ds[0].Code != "C" || ds[1].Code != "A" || ds[2].Code != "B" {
		t.Errorf("bad order: %v", ds)
	}
}

func TestHasErrors(t *testing.T) {
	if HasErrors([]Diagnostic{{Severity: SevWarning}}) {
		t.Error("warnings alone must not count as errors")
	}
	if !HasErrors([]Diagnostic{{Severity: SevWarning}, {Severity: SevError}}) {
		t.Error("error diagnostic not detected")
	}
}

func TestDiagnosticAndErrorStrings(t *testing.T) {
	d := Diagnostic{Code: "CT001", Severity: SevError, Path: "ctmc.transitions[0].rate", Msg: "rate -1 is not a positive finite number"}
	if got := d.String(); got != "error CT001 ctmc.transitions[0].rate: rate -1 is not a positive finite number" {
		t.Errorf("bad Diagnostic.String: %q", got)
	}
	e := &Error{Diags: []Diagnostic{d}}
	if !strings.Contains(e.Error(), "1 problem") || !strings.Contains(e.Error(), "CT001") {
		t.Errorf("bad Error.Error: %q", e.Error())
	}
}

func TestSeverityString(t *testing.T) {
	for sev, want := range map[Severity]string{SevError: "error", SevWarning: "warning", SevInfo: "info"} {
		if sev.String() != want {
			t.Errorf("Severity(%d).String() = %q, want %q", sev, sev.String(), want)
		}
	}
}
