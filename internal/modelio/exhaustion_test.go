package modelio

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/failpoint"
	"repro/internal/guard"
)

// TestChainExhaustionTelemetry pins the terminal-failure contract of
// the fallback chain: with SOR unable to converge (one-sweep budget)
// AND the GTH escalation broken by a failpoint, the solve must return a
// typed *guard.ExhaustedError carrying every attempt — never a
// zero-value result presented as an answer.
func TestChainExhaustionTelemetry(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	if err := failpoint.Arm("linalg.gth", "error(gth wrecked)"); err != nil {
		t.Fatal(err)
	}
	s := specFromJSON(t, `{
		"type": "ctmc",
		"name": "exhaust",
		"ctmc": {
			"transitions": [
				{"from": "a", "to": "b", "rate": 1},
				{"from": "b", "to": "c", "rate": 2},
				{"from": "c", "to": "a", "rate": 3}
			],
			"measures": ["steadystate"],
			"solver": "chain",
			"solverTol": 1e-14,
			"solverMaxIter": 1
		}
	}`)
	results, err := Solve(s)
	if err == nil {
		t.Fatalf("solve succeeded with both methods broken: %v", results)
	}
	if results != nil {
		t.Errorf("exhausted chain leaked results: %v", results)
	}
	var exh *guard.ExhaustedError
	if !errors.As(err, &exh) {
		t.Fatalf("error is not a *guard.ExhaustedError: %v", err)
	}
	if len(exh.Report.Attempts) < 2 {
		t.Fatalf("attempt telemetry incomplete: %+v", exh.Report)
	}
	methods := make(map[string]guard.FailureClass)
	for _, a := range exh.Report.Attempts {
		methods[a.Method] = a.Class
		if a.Err == "" || a.Class == "" {
			t.Errorf("attempt %q lacks failure detail: %+v", a.Method, a)
		}
	}
	if _, ok := methods["sor"]; !ok {
		t.Errorf("no sor attempt recorded: %+v", exh.Report.Attempts)
	}
	if cls, ok := methods["gth"]; !ok || cls != guard.ClassInjected {
		t.Errorf("gth attempt class = %q, want %q: %+v", cls, guard.ClassInjected, exh.Report.Attempts)
	}
	if exh.Report.Winner != "" {
		t.Errorf("exhausted chain reports winner %q", exh.Report.Winner)
	}
	if !strings.Contains(err.Error(), "gth wrecked") {
		t.Errorf("terminal error lost the last cause: %v", err)
	}
}
