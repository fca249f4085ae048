package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// newDashMux builds a serve mux with the dashboard mounted and two
// solves already retained: repairfarm.json (t1, pinned SOR with
// per-iteration residuals) and lumpable.json (t2, exercises the
// structural-analysis attrs and automatic lumping).
func newDashMux(t *testing.T) *http.ServeMux {
	t.Helper()
	mux := mustServeMux(t, serveConfig{
		Registry:    metrics.NewRegistry(),
		MaxInflight: 2,
		BenchPath:   filepath.Join("testdata", "dash_bench.json"),
		CorrSeed:    1, // pinned so corr IDs land in the goldens verbatim
	})
	for _, m := range []string{"repairfarm.json", "lumpable.json"} {
		if w := postModel(t, mux, filepath.Join("..", "..", "models", m), ""); w.Code != http.StatusOK {
			t.Fatalf("POST /solve %s: status %d: %s", m, w.Code, w.Body.String())
		}
	}
	return mux
}

// The dashboard scrubbers blank every timing-dependent quantity so the
// goldens lock structure — page layout, span nesting, attribute keys,
// JSON schema — rather than wall clocks. Residuals, iteration counts,
// solver choices, and the allocation counts of the fixed bench rows in
// testdata/dash_bench.json stay un-scrubbed.
var (
	dashWallHTMLRE = regexp.MustCompile(`[0-9]+(?:\.[0-9]+)?(?:e[+-]?[0-9]+)?ms`)
	dashTimeRE     = regexp.MustCompile(`\d{4}-\d{2}-\d{2}T[0-9:.]+(?:Z|[+-]\d{2}:\d{2})`)
	dashWallJSONRE = regexp.MustCompile(`"(wall_ns|wall_ms|uptime_s|value|sum)": [0-9.e+-]+`)
	dashStartRE    = regexp.MustCompile(`"start": "[^"]*"`)
	dashBucketsRE  = regexp.MustCompile(`"buckets": \[[^\]]*\]`)
)

func scrubDash(s string) string {
	s = dashWallHTMLRE.ReplaceAllString(s, "Xms")
	s = dashTimeRE.ReplaceAllString(s, "TS")
	s = dashWallJSONRE.ReplaceAllString(s, `"$1": 0`)
	s = dashStartRE.ReplaceAllString(s, `"start": "TS"`)
	return dashBucketsRE.ReplaceAllString(s, `"buckets": []`)
}

// TestServeDashboardGolden locks every dashboard route — the two HTML
// pages and each JSON API — after solving both bundled models. Any
// change to a template, the trace-record schema, or the snapshot shape
// shows up as a diff here.
func TestServeDashboardGolden(t *testing.T) {
	mux := newDashMux(t)
	for _, tc := range []struct {
		name, path, contains string
	}{
		{"ui_index", "/ui", "/ui/trace/t2"},
		{"ui_trace_repairfarm", "/ui/trace/t1", "linalg.sor"},
		{"ui_trace_lumpable", "/ui/trace/t2", "lump_ratio"},
		{"api_traces", "/api/traces", `"retained": 2`},
		{"api_trace", "/api/traces/t1", `"trace"`},
		{"api_metrics", "/api/metrics", "relscope_solver_wall_seconds"},
		{"api_bench", "/api/bench", `"allocs"`},
		{"api_summary", "/api/summary", `"requests": 2`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodGet, tc.path, nil)
			w := httptest.NewRecorder()
			mux.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				t.Fatalf("GET %s: status %d: %s", tc.path, w.Code, w.Body.String())
			}
			got := scrubDash(w.Body.String())
			if !strings.Contains(got, tc.contains) {
				t.Errorf("GET %s missing %q:\n%s", tc.path, tc.contains, got)
			}
			golden := filepath.Join("testdata", "dash_"+tc.name+".golden")
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
				t.Errorf("GET %s drifted from %s; rerun with -update if intended.\ngot:\n%s", tc.path, golden, got)
			}
		})
	}
}

// TestServeTraceStoreRetainsAnalyze checks /analyze requests land in the
// trace store as metadata-only records alongside solves.
func TestServeTraceStoreRetainsAnalyze(t *testing.T) {
	mux := newDashMux(t)
	body, err := os.ReadFile(filepath.Join("..", "..", "models", "absorbing.json"))
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/analyze", strings.NewReader(string(body)))
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("POST /analyze: status %d", w.Code)
	}
	req = httptest.NewRequest(http.MethodGet, "/api/traces", nil)
	w = httptest.NewRecorder()
	mux.ServeHTTP(w, req)
	out := w.Body.String()
	if !strings.Contains(out, `"endpoint": "analyze"`) ||
		!strings.Contains(out, "two-stage degradation to failure (mtta)") {
		t.Errorf("analyze request not retained in the trace store:\n%s", out)
	}
}
