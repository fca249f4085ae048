package modelio_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/modelio"
)

// The tests in this file check model documents through internal/lint,
// which imports modelio, so they live in the external test package.

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
	spec, ds, _ := lint.CheckDocument(strings.NewReader(`{"type": "ctmc",`))
	if spec != nil {
		t.Error("malformed document should not yield a spec")
	}
	d := findCode(t, ds, lint.CodeSpecParse)
	if d.Severity != lint.SevError {
		t.Errorf("SPEC001 severity = %v, want error", d.Severity)
	}
}

func TestLintDocumentUnknownField(t *testing.T) {
	_, ds, _ := lint.CheckDocument(strings.NewReader(`{"type": "ctmc", "ctmc": {"transitions": [], "measures": []}, "typo": 1}`))
	findCode(t, ds, lint.CodeSpecParse)
}

func TestLintDocumentUnknownKind(t *testing.T) {
	_, ds, _ := lint.CheckDocument(strings.NewReader(`{"type": "petri"}`))
	d := findCode(t, ds, lint.CodeSpecType)
	if d.Path != "type" {
		t.Errorf("SPEC002 path = %q, want \"type\"", d.Path)
	}
	if !strings.Contains(d.Msg, "petri") {
		t.Errorf("SPEC002 message should name the bad type: %s", d.Msg)
	}
}

func TestLintDocumentMissingType(t *testing.T) {
	_, ds, _ := lint.CheckDocument(strings.NewReader(`{"name": "anonymous"}`))
	findCode(t, ds, lint.CodeSpecType)
}

func TestLintDocumentMissingSection(t *testing.T) {
	_, ds, _ := lint.CheckDocument(strings.NewReader(`{"type": "rbd"}`))
	d := findCode(t, ds, lint.CodeSpecSection)
	if d.Path != "rbd" {
		t.Errorf("SPEC003 path = %q, want \"rbd\"", d.Path)
	}
}

func TestLintUnknownMeasure(t *testing.T) {
	_, ds, _ := lint.CheckDocument(strings.NewReader(`{
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
	_, ds, _ := lint.CheckDocument(strings.NewReader(`{
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
	_, ds, _ := lint.CheckDocument(strings.NewReader(`{
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
	_, ds, _ := lint.CheckDocument(strings.NewReader(`{
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
	_, ds, _ := lint.CheckDocument(strings.NewReader(`{
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
	_, ds, _ := lint.CheckDocument(strings.NewReader(doc))
	if len(ds) != 0 {
		t.Errorf("clean document produced diagnostics: %v", ds)
	}
}

// TestLintRunsEachFormalismCheck: lint.Check hands each document type to its
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
		spec, ds, rep := lint.CheckDocument(strings.NewReader(tc.doc))
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
		spec, _, rep := lint.CheckDocument(bytes.NewReader(raw))
		if spec == nil || spec.Type != "ctmc" {
			continue
		}
		ctmcs++
		want, err := modelio.StructReport(spec.CTMC)
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

// TestLumpModeValidation: an unknown lump mode is a lint error.
func TestLumpModeValidation(t *testing.T) {
	spec := modelio.FarmSpec(2, 0.01, 1.0, 1, []string{"availability"}, "sometimes")
	ds, _ := lint.Check(spec)
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

// FuzzLint fuzzes the combined decode+lint path: lint.CheckDocument must
// never panic, must always return at least one diagnostic for undecodable
// input, and its diagnostics must be well-formed (coded, sorted severity
// set), in lint.Sort order, and the same when the same bytes are linted
// again. A structural report comes back only for ctmc documents.
func FuzzLint(f *testing.F) {
	modelio.SeedModels(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, ds, rep := lint.CheckDocument(bytes.NewReader(data))
		if spec == nil && len(ds) == 0 {
			t.Fatal("undecodable document produced no diagnostics")
		}
		for _, d := range ds {
			if d.Code == "" {
				t.Errorf("diagnostic without a code: %+v", d)
			}
			if d.Severity != lint.SevError && d.Severity != lint.SevWarning && d.Severity != lint.SevInfo {
				t.Errorf("diagnostic with unknown severity %q: %+v", d.Severity, d)
			}
		}
		sorted := append([]lint.Diagnostic(nil), ds...)
		lint.Sort(sorted)
		if !reflect.DeepEqual(sorted, ds) {
			t.Errorf("diagnostics not in lint.Sort order:\n%v", ds)
		}
		if _, again, _ := lint.CheckDocument(bytes.NewReader(data)); !reflect.DeepEqual(again, ds) {
			t.Errorf("linting the same bytes twice disagrees:\n%v\n%v", ds, again)
		}
		if rep != nil && (spec == nil || spec.Type != "ctmc") {
			t.Errorf("structural report for a non-ctmc document: %+v", spec)
		}
	})
}
