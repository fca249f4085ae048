package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
)

// TestSlogRecorderInfo checks the span events LogSpans writes off a
// finished trace at Info level: one line per span in completion order
// with the dotted path, wall time, attributes, folded iteration summary
// and the caller's extra fields — but no per-iteration spam.
func TestSlogRecorderInfo(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelInfo}))
	tr := NewTrace("farm")
	tr.Set(S("corr", "root-attr-not-logged"))
	root := tr.Span("modelio.solve", S("model", "farm"))
	sor := root.Span("linalg.sor", S("solver", "sor"))
	sor.Iter(1, 0.5)
	sor.IterLabel(2, 0.01, "sweep")
	sor.End()
	root.End()
	LogSpans(logger, tr.Finish(), "corr", "c1")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 span events, got %d:\n%s", len(lines), buf.String())
	}
	var ev struct {
		Msg          string  `json:"msg"`
		Corr         string  `json:"corr"`
		Span         string  `json:"span"`
		WallMS       float64 `json:"wall_ms"`
		Iterations   int     `json:"iterations"`
		LastResidual float64 `json:"last_residual"`
		Solver       string  `json:"solver"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Msg != "span" || ev.Span != "modelio.solve.linalg.sor" || ev.Corr != "c1" {
		t.Errorf("inner event = %+v", ev)
	}
	if ev.Iterations != 2 || ev.LastResidual != 0.01 || ev.Solver != "sor" {
		t.Errorf("inner event missing solve facts: %+v", ev)
	}
	ev.Corr = ""
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Span != "modelio.solve" || ev.WallMS < 0 || ev.Corr != "c1" {
		t.Errorf("root event = %+v", ev)
	}
}

// TestSlogRecorderDebugIterations checks that a Debug-level handler also
// receives one structured convergence event per iteration, ahead of its
// span's event.
func TestSlogRecorderDebugIterations(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	tr := NewTrace("root")
	sp := tr.Span("linalg.sor", S("solver", "sor"))
	sp.Iter(1, 0.5)
	sp.IterLabel(2, 0.25, "node-a")
	sp.End()
	LogSpans(logger, tr.Finish())

	out := buf.String()
	if got := strings.Count(out, "msg=convergence"); got != 2 {
		t.Errorf("want 2 convergence events, got %d:\n%s", got, out)
	}
	if !strings.Contains(out, "label=node-a") {
		t.Errorf("labeled iteration lost its label:\n%s", out)
	}
	if strings.Index(out, "msg=convergence") > strings.Index(out, "msg=span") {
		t.Errorf("span event logged before its convergence events:\n%s", out)
	}
}
