package main

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/modelio"
)

func TestLintCleanBundledModels(t *testing.T) {
	dir := filepath.Join("..", "..", "models")
	for _, name := range []string{"bridge.json", "duplex.json", "mm1k.json", "pumptrain.json", "webtier.json"} {
		var out strings.Builder
		if err := run([]string{"lint", filepath.Join(dir, name)}, nil, &out); err != nil {
			t.Errorf("%s: lint failed: %v\n%s", name, err, out.String())
		}
	}
}

func TestLintBrokenFixture(t *testing.T) {
	path := filepath.Join("..", "..", "models", "broken_rowsum.json")
	var out strings.Builder
	err := run([]string{"lint", path}, nil, &out)
	if err == nil {
		t.Fatalf("broken fixture passed lint:\n%s", out.String())
	}
	got := out.String()
	for _, want := range []string{
		"CT001", // negative rate
		"CT004", // upStates references undeclared "ghost"
		"CT005", // "limbo" unreachable from initial
		"broken_rowsum.json",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("lint output missing %q:\n%s", want, got)
		}
	}
}

func TestLintJSONOutput(t *testing.T) {
	path := filepath.Join("..", "..", "models", "broken_rowsum.json")
	var out strings.Builder
	if err := run([]string{"lint", "-json", path}, nil, &out); err == nil {
		t.Fatal("broken fixture passed lint")
	}
	got := out.String()
	if !strings.Contains(got, `"code": "CT001"`) || !strings.Contains(got, `"path": "ctmc.transitions[0].rate"`) {
		t.Errorf("json lint output missing structured diagnostic:\n%s", got)
	}
}

func TestLintFromStdin(t *testing.T) {
	doc := `{"type": "petri"}`
	var out strings.Builder
	if err := run([]string{"lint"}, strings.NewReader(doc), &out); err == nil {
		t.Fatal("unknown model type passed lint")
	}
	if !strings.Contains(out.String(), "SPEC002") {
		t.Errorf("expected SPEC002 in output:\n%s", out.String())
	}
}

func TestLintCleanStdinReportsClean(t *testing.T) {
	doc := `{"type":"faulttree","faulttree":{
	  "events":[{"name":"a","prob":0.5}],
	  "top":{"event":"a"},"measures":["top"]}}`
	var out strings.Builder
	if err := run([]string{"lint"}, strings.NewReader(doc), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "clean") {
		t.Errorf("expected clean report, got:\n%s", out.String())
	}
}

func TestPreflightFlag(t *testing.T) {
	path := filepath.Join("..", "..", "models", "broken_rowsum.json")
	err := run([]string{"-preflight", "-model", path}, nil, &strings.Builder{})
	if err == nil {
		t.Fatal("preflight solved a broken model")
	}
	if !strings.Contains(err.Error(), "CT001") {
		t.Errorf("preflight error should carry diagnostics: %v", err)
	}

	// Without preflight, the same model reaches the solver and fails with
	// a plain (non-lint) error from the rate validation.
	err = run([]string{"-model", path}, nil, &strings.Builder{})
	if err == nil {
		t.Fatal("solver accepted a negative rate")
	}
	if strings.Contains(err.Error(), "CT001") {
		t.Errorf("non-preflight path should not produce lint codes: %v", err)
	}

	// A clean model still solves with preflight on.
	var out strings.Builder
	if err := run([]string{"-preflight", "-model", filepath.Join("..", "..", "models", "duplex.json")}, nil, &out); err != nil {
		t.Fatalf("preflight blocked a clean model: %v", err)
	}
	if !strings.Contains(out.String(), "availability") {
		t.Errorf("missing results:\n%s", out.String())
	}
}

// TestSolveSpecPreflight: with preflight, solveSpec refuses a model with
// an error-severity finding, returning the *lint.Error that lists it,
// and solves a clean one.
func TestSolveSpecPreflight(t *testing.T) {
	bad := &modelio.Spec{
		Type: "ctmc",
		CTMC: &modelio.CTMCSpec{
			Transitions: []modelio.CTMCTransition{
				{From: "up", To: "down", Rate: -1},
				{From: "down", To: "up", Rate: 1},
			},
			Measures: []string{"steadystate"},
		},
	}
	if _, err := solveSpec(bad, modelio.SolveOptions{}, true); err == nil {
		t.Fatal("preflight should reject the negative rate")
	} else if lerr, ok := err.(*lint.Error); !ok {
		t.Fatalf("want *lint.Error, got %T: %v", err, err)
	} else if len(lerr.Diags) == 0 || lerr.Diags[0].Code != lint.CodeCTMCBadRate {
		t.Fatalf("unexpected preflight report: %v", lerr.Diags)
	}

	good := &modelio.Spec{
		Type: "ctmc",
		CTMC: &modelio.CTMCSpec{
			Transitions: []modelio.CTMCTransition{
				{From: "up", To: "down", Rate: 0.01},
				{From: "down", To: "up", Rate: 1},
			},
			Measures: []string{"steadystate"},
		},
	}
	if _, err := solveSpec(good, modelio.SolveOptions{}, true); err != nil {
		t.Fatalf("preflight rejected a clean model: %v", err)
	}
}

func TestPreflightWarningsDoNotBlock(t *testing.T) {
	// A duplicate transition is only a warning; solving must proceed.
	s := &modelio.Spec{
		Type: "ctmc",
		CTMC: &modelio.CTMCSpec{
			Transitions: []modelio.CTMCTransition{
				{From: "up", To: "down", Rate: 0.01},
				{From: "up", To: "down", Rate: 0.02},
				{From: "down", To: "up", Rate: 1},
			},
			Measures: []string{"steadystate"},
		},
	}
	if _, err := solveSpec(s, modelio.SolveOptions{}, true); err != nil {
		t.Fatalf("warning-only model blocked: %v", err)
	}
}
