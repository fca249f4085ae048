package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// wallRE and wallMSRE scrub the only nondeterministic fields of a trace
// document: wall-clock durations in both units.
var (
	wallRE   = regexp.MustCompile(`"wall_ns": \d+`)
	wallMSRE = regexp.MustCompile(`"wall_ms": [0-9.e+-]+`)
)

func scrubWall(s string) string {
	s = wallRE.ReplaceAllString(s, `"wall_ns": 0`)
	return wallMSRE.ReplaceAllString(s, `"wall_ms": 0`)
}

// TestSolveTraceJSONGolden locks the -trace-json document shape for a
// bundled model that forces the SOR path, so the trace carries
// per-iteration residuals. Wall times are scrubbed; everything else —
// span nesting, attribute keys, residual values — must be byte-stable.
func TestSolveTraceJSONGolden(t *testing.T) {
	model := filepath.Join("..", "..", "models", "repairfarm.json")
	var out strings.Builder
	if err := run([]string{"solve", "-trace-json", model}, nil, &out); err != nil {
		t.Fatal(err)
	}
	got := scrubWall(out.String())

	golden := filepath.Join("testdata", "repairfarm_trace.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("trace JSON drifted from %s; rerun with -update if intended.\ngot:\n%s", golden, got)
	}
}

// TestSolveTraceJSONIsValid decodes the emitted document and asserts the
// structural acceptance criteria: a nested span tree reaching the
// iterative solver, with monotone-ish residuals below tolerance.
func TestSolveTraceJSONIsValid(t *testing.T) {
	model := filepath.Join("..", "..", "models", "repairfarm.json")
	var out strings.Builder
	if err := run([]string{"solve", "-trace-json", model}, nil, &out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Results []struct {
			Measure string `json:"measure"`
		} `json:"results"`
		Trace struct {
			Name     string `json:"name"`
			Children []json.RawMessage
		} `json:"trace"`
	}
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("trace-json output is not valid JSON: %v", err)
	}
	if len(doc.Results) != 2 {
		t.Errorf("results = %d, want 2", len(doc.Results))
	}
	if len(doc.Trace.Children) == 0 {
		t.Fatal("trace has no child spans")
	}
	// Walk the raw tree for a span with iters.
	var hasIters func(raw json.RawMessage) bool
	hasIters = func(raw json.RawMessage) bool {
		var sp struct {
			Iters []struct {
				N        int     `json:"n"`
				Residual float64 `json:"residual"`
			} `json:"iters"`
			Children []json.RawMessage `json:"children"`
		}
		if err := json.Unmarshal(raw, &sp); err != nil {
			t.Fatal(err)
		}
		if len(sp.Iters) > 0 {
			return true
		}
		for _, c := range sp.Children {
			if hasIters(c) {
				return true
			}
		}
		return false
	}
	found := false
	for _, c := range doc.Trace.Children {
		if hasIters(c) {
			found = true
		}
	}
	if !found {
		t.Error("no span in the trace carries per-iteration residuals")
	}
}

// TestSolveTraceTextAndMetrics exercises the stderr-bound flags through
// the captured stderr writer.
func TestSolveTraceTextAndMetrics(t *testing.T) {
	model := filepath.Join("..", "..", "models", "repairfarm.json")
	var errBuf strings.Builder
	old := stderr
	stderr = &errBuf
	defer func() { stderr = old }()

	var out strings.Builder
	if err := run([]string{"solve", "-trace", "-metrics", model}, nil, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "model: machine repair farm") {
		t.Errorf("stdout lost the report: %q", out.String())
	}
	diag := errBuf.String()
	if !strings.Contains(diag, "linalg.sor") {
		t.Errorf("text trace missing solver span:\n%s", diag)
	}
	if !strings.Contains(diag, "solver=sor") {
		t.Errorf("metrics line missing dominant solver:\n%s", diag)
	}
}

// TestSolveLogAndMetricsFromTrace checks that -log and -metrics are read
// off the finished trace: -log alone still yields span events, and the
// relscope dump carries the SOR iterations folded from the span tree.
func TestSolveLogAndMetricsFromTrace(t *testing.T) {
	model := filepath.Join("..", "..", "models", "repairfarm.json")
	var errBuf strings.Builder
	old := stderr
	stderr = &errBuf
	defer func() { stderr = old }()

	if err := run([]string{"solve", "-log", "json", "-metrics", model}, nil, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	diag := errBuf.String()
	for _, want := range []string{
		`"msg":"span","span":"modelio.solve"`,
		`"solver":"sor"`,
		`relscope_solver_iterations_total{solver="sor",model="machine repair farm (SOR steady state)"} `,
	} {
		if !strings.Contains(diag, want) {
			t.Errorf("stderr missing %q:\n%s", want, diag)
		}
	}
}
