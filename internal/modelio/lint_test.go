package modelio

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// findCode returns the first diagnostic with the given code, failing the
// test if it is absent.
func findCode(t *testing.T, ds []lint.Diagnostic, code string) lint.Diagnostic {
	t.Helper()
	for _, d := range ds {
		if d.Code == code {
			return d
		}
	}
	t.Fatalf("missing diagnostic %s in report:\n%v", code, ds)
	return lint.Diagnostic{}
}

func TestLintDocumentMalformedJSON(t *testing.T) {
	spec, ds, _ := LintDocument(strings.NewReader(`{"type": "ctmc",`))
	if spec != nil {
		t.Error("malformed document should not yield a spec")
	}
	d := findCode(t, ds, lint.CodeSpecParse)
	if d.Severity != lint.SevError {
		t.Errorf("SPEC001 severity = %v, want error", d.Severity)
	}
}

func TestLintDocumentUnknownField(t *testing.T) {
	_, ds, _ := LintDocument(strings.NewReader(`{"type": "ctmc", "ctmc": {"transitions": [], "measures": []}, "typo": 1}`))
	findCode(t, ds, lint.CodeSpecParse)
}

func TestLintDocumentUnknownKind(t *testing.T) {
	_, ds, _ := LintDocument(strings.NewReader(`{"type": "petri"}`))
	d := findCode(t, ds, lint.CodeSpecType)
	if d.Path != "type" {
		t.Errorf("SPEC002 path = %q, want \"type\"", d.Path)
	}
	if !strings.Contains(d.Msg, "petri") {
		t.Errorf("SPEC002 message should name the bad type: %s", d.Msg)
	}
}

func TestLintDocumentMissingType(t *testing.T) {
	_, ds, _ := LintDocument(strings.NewReader(`{"name": "anonymous"}`))
	findCode(t, ds, lint.CodeSpecType)
}

func TestLintDocumentMissingSection(t *testing.T) {
	_, ds, _ := LintDocument(strings.NewReader(`{"type": "rbd"}`))
	d := findCode(t, ds, lint.CodeSpecSection)
	if d.Path != "rbd" {
		t.Errorf("SPEC003 path = %q, want \"rbd\"", d.Path)
	}
}

func TestLintUnknownMeasure(t *testing.T) {
	_, ds, _ := LintDocument(strings.NewReader(`{
		"type": "relgraph",
		"relgraph": {
			"edges": [{"name": "e", "from": "s", "to": "t", "rel": 0.9}],
			"source": "s", "target": "t",
			"measures": ["reliability", "bogus"]
		}
	}`))
	d := findCode(t, ds, lint.CodeSpecMeasure)
	if d.Path != "measures[1]" {
		t.Errorf("SPEC004 path = %q, want \"measures[1]\"", d.Path)
	}
}

func TestLintMissingMeasureField(t *testing.T) {
	// reliability without a mission time.
	_, ds, _ := LintDocument(strings.NewReader(`{
		"type": "rbd",
		"rbd": {
			"components": [{"name": "a", "lifetime": {"kind": "exponential", "rate": 0.1}}],
			"structure": {"comp": "a"},
			"measures": ["reliability"]
		}
	}`))
	d := findCode(t, ds, lint.CodeSpecField)
	if d.Path != "measures[0]" {
		t.Errorf("SPEC005 path = %q, want \"measures[0]\"", d.Path)
	}
}

func TestLintCTMCMeasureFields(t *testing.T) {
	_, ds, _ := LintDocument(strings.NewReader(`{
		"type": "ctmc",
		"ctmc": {
			"transitions": [
				{"from": "up", "to": "down", "rate": 0.1},
				{"from": "down", "to": "up", "rate": 2}
			],
			"measures": ["availability", "transient", "mtta"]
		}
	}`))
	count := 0
	for _, d := range ds {
		if d.Code == lint.CodeSpecField {
			count++
		}
	}
	if count != 3 {
		t.Errorf("want 3 SPEC005 diagnostics (availability, transient, mtta all missing fields), got %d:\n%v", count, ds)
	}
}

func TestLintFindsStructuralProblems(t *testing.T) {
	// Bad rate and an unreachable state, through the document interface.
	_, ds, _ := LintDocument(strings.NewReader(`{
		"type": "ctmc",
		"ctmc": {
			"transitions": [
				{"from": "up", "to": "down", "rate": -5},
				{"from": "down", "to": "up", "rate": 2},
				{"from": "limbo", "to": "up", "rate": 1}
			],
			"initial": "up",
			"measures": ["steadystate"]
		}
	}`))
	d := findCode(t, ds, lint.CodeCTMCBadRate)
	if d.Path != "ctmc.transitions[0].rate" {
		t.Errorf("CT001 path = %q", d.Path)
	}
	findCode(t, ds, lint.CodeCTMCUnreachable)
}

func TestLintSPNMeasureReferences(t *testing.T) {
	_, ds, _ := LintDocument(strings.NewReader(`{
		"type": "spn",
		"spn": {
			"places": [{"name": "p", "tokens": 1}],
			"transitions": [{"name": "t", "kind": "timed", "rate": 1}],
			"arcs": [
				{"kind": "input", "place": "p", "transition": "t"},
				{"kind": "output", "place": "p", "transition": "t"}
			],
			"conditions": [{"name": "c", "place": "ghost", "op": "!=", "tokens": 1}],
			"measures": ["throughput:nope", "prob:undeclared"]
		}
	}`))
	count := 0
	for _, d := range ds {
		if d.Code == lint.CodeSpecField {
			count++
		}
	}
	// Condition place, condition op, throughput target, prob target.
	if count != 4 {
		t.Errorf("want 4 SPEC005 diagnostics, got %d:\n%v", count, ds)
	}
}

func TestLintCleanModelsAreClean(t *testing.T) {
	doc := `{
		"type": "faulttree",
		"faulttree": {
			"events": [{"name": "a", "prob": 0.1}, {"name": "b", "prob": 0.2}],
			"top": {"op": "and", "children": [{"event": "a"}, {"event": "b"}]},
			"measures": ["top", "mincuts"]
		}
	}`
	_, ds, _ := LintDocument(strings.NewReader(doc))
	if len(ds) != 0 {
		t.Errorf("clean document produced diagnostics: %v", ds)
	}
}

// TestLintRunsEachFormalismCheck: Lint hands each document type to its
// formalism's check, and only a ctmc document comes back with the
// structural report that check read.
func TestLintRunsEachFormalismCheck(t *testing.T) {
	cases := []struct {
		doc, code string
	}{
		{`{"type": "ctmc", "ctmc": {"transitions": [
			{"from": "a", "to": "b", "rate": -1}, {"from": "b", "to": "a", "rate": 1}]}}`, lint.CodeCTMCBadRate},
		{`{"type": "faulttree", "faulttree": {"events": [{"name": "e", "prob": 2}],
			"top": {"event": "e"}}}`, lint.CodeFTProbRange},
		{`{"type": "rbd", "rbd": {"components": [{"name": "a"}],
			"structure": {"comp": "ghost"}}}`, lint.CodeRBDUnknownComp},
		{`{"type": "relgraph", "relgraph": {"edges": [{"name": "e", "from": "s", "to": "t", "rel": 1.5}],
			"source": "s", "target": "t"}}`, lint.CodeRGRelRange},
		{`{"type": "spn", "spn": {"places": [{"name": "p", "tokens": 1}],
			"transitions": [{"name": "t", "kind": "timed", "rate": 0}],
			"arcs": [{"kind": "input", "place": "p", "transition": "t"}]}}`, lint.CodePNBadRate},
	}
	for _, tc := range cases {
		spec, ds, rep := LintDocument(strings.NewReader(tc.doc))
		if spec == nil {
			t.Fatalf("%s: document did not decode: %v", tc.code, ds)
		}
		findCode(t, ds, tc.code)
		if (rep != nil) != (spec.Type == "ctmc") {
			t.Errorf("%s document: structural report %v", spec.Type, rep)
		}
	}
}

// TestLintDocumentReportIsStructReport: the report lint reads off a
// bundled ctmc model is the one StructReport computes on its own.
func TestLintDocumentReportIsStructReport(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "models", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	ctmcs := 0
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		spec, _, rep := LintDocument(bytes.NewReader(raw))
		if spec == nil || spec.Type != "ctmc" {
			continue
		}
		ctmcs++
		want, err := StructReport(spec.CTMC)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		got, _ := json.Marshal(rep)
		wantJSON, _ := json.Marshal(want)
		if !bytes.Equal(got, wantJSON) {
			t.Errorf("%s: lint's report differs from StructReport:\n%s\n%s", p, got, wantJSON)
		}
	}
	if ctmcs == 0 {
		t.Fatal("no ctmc models found")
	}
}

func TestSolveWithOptionsPreflight(t *testing.T) {
	bad := &Spec{
		Type: "ctmc",
		CTMC: &CTMCSpec{
			Transitions: []CTMCTransition{
				{From: "up", To: "down", Rate: -1},
				{From: "down", To: "up", Rate: 1},
			},
			Measures: []string{"steadystate"},
		},
	}
	if _, err := SolveWithOptions(bad, SolveOptions{Preflight: true}); err == nil {
		t.Fatal("preflight should reject the negative rate")
	} else if lerr, ok := err.(*lint.Error); !ok {
		t.Fatalf("want *lint.Error, got %T: %v", err, err)
	} else if len(lerr.Diags) == 0 || lerr.Diags[0].Code != lint.CodeCTMCBadRate {
		t.Fatalf("unexpected preflight report: %v", lerr.Diags)
	}

	good := &Spec{
		Type: "ctmc",
		CTMC: &CTMCSpec{
			Transitions: []CTMCTransition{
				{From: "up", To: "down", Rate: 0.01},
				{From: "down", To: "up", Rate: 1},
			},
			Measures: []string{"steadystate"},
		},
	}
	if _, err := SolveWithOptions(good, SolveOptions{Preflight: true}); err != nil {
		t.Fatalf("preflight rejected a clean model: %v", err)
	}
}

func TestPreflightWarningsDoNotBlock(t *testing.T) {
	// A duplicate transition is only a warning; solving must proceed.
	s := &Spec{
		Type: "ctmc",
		CTMC: &CTMCSpec{
			Transitions: []CTMCTransition{
				{From: "up", To: "down", Rate: 0.01},
				{From: "up", To: "down", Rate: 0.02},
				{From: "down", To: "up", Rate: 1},
			},
			Measures: []string{"steadystate"},
		},
	}
	if _, err := SolveWithOptions(s, SolveOptions{Preflight: true}); err != nil {
		t.Fatalf("warning-only model blocked: %v", err)
	}
}
