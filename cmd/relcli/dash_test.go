package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/failpoint"
	"repro/internal/jobs"
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

// dashProfileBytesRE scrubs the size cell of a profile row on the trace
// page; a heap profile's size depends on the live heap.
var dashProfileBytesRE = regexp.MustCompile(`(<td>TS</td><td>)[0-9]+(</td></tr>)`)

// TestServeDashboardLiveGolden locks the panels TestServeDashboardGolden
// leaves empty: the Jobs panel with a finished sweep, the SLO panel with
// a fitted self-model prediction, and the trace page's profile section
// with a heap capture taken while the solve ran.
func TestServeDashboardLiveGolden(t *testing.T) {
	s, mux, err := newSolveServer(serveConfig{
		Registry:       metrics.NewRegistry(),
		MaxInflight:    2,
		CorrSeed:       1,
		ProfileDir:     t.TempDir(),
		SelfModelEvery: time.Hour, // sampler on; ticks never fire in-test
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.stopBackground)

	// The first SOR sweep stalls so a heap capture lands inside the
	// solve's trace window. The solve goes first: its corr ID is then the
	// first of the pinned stream whatever the job polling below costs.
	t.Cleanup(failpoint.Reset)
	if err := failpoint.Arm("linalg.sor.sweep", "times(1)->delay(500ms)"); err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(filepath.Join("..", "..", "models", "repairfarm.json"))
	if err != nil {
		t.Fatal(err)
	}
	solved := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(body)))
		solved <- w
	}()
	for tripped := false; !tripped; {
		select {
		case w := <-solved:
			t.Fatalf("solve returned before the failpoint tripped: status %d: %s", w.Code, w.Body.String())
		case <-time.After(time.Millisecond):
		}
		for _, st := range failpoint.Stats() {
			tripped = tripped || st.Trips > 0
		}
	}
	if _, err := s.profiles.CaptureHeap(); err != nil {
		t.Fatal(err)
	}
	if w := <-solved; w.Code != http.StatusOK {
		t.Fatalf("POST /solve: status %d: %s", w.Code, w.Body.String())
	}
	failpoint.Reset()

	w, resp := jobRequest(t, mux, http.MethodPost, "/jobs", jobDoc, nil)
	if w.Code != http.StatusCreated {
		t.Fatalf("POST /jobs: status %d: %s", w.Code, w.Body.String())
	}
	if final := waitJobDone(t, mux, resp.Job.ID); final.Job.State != jobs.StateDone {
		t.Fatalf("job state %s (%s), want done", final.Job.State, final.Job.Error)
	}

	base := time.Unix(1_700_000_000, 0)
	for cycle := 0; cycle < 4; cycle++ {
		s.selfModel.Step("ok", base)
		base = base.Add(9 * time.Second)
		s.selfModel.Step("open", base)
		base = base.Add(time.Second)
	}
	s.selfModel.Step("ok", base)
	s.predictSelf(base)

	for _, tc := range []struct {
		name, path string
		contains   []string
	}{
		{"ui_live_index", "/ui", []string{"4/4 (100%)", "modeled (self-CTMC) 0.9<"}},
		{"ui_live_trace", "/ui/trace/t1", []string{"<code>heap-000001.pprof</code>"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := httptest.NewRecorder()
			mux.ServeHTTP(w, httptest.NewRequest(http.MethodGet, tc.path, nil))
			if w.Code != http.StatusOK {
				t.Fatalf("GET %s: status %d: %s", tc.path, w.Code, w.Body.String())
			}
			got := dashProfileBytesRE.ReplaceAllString(scrubDash(w.Body.String()), "${1}N$2")
			for _, want := range tc.contains {
				if !strings.Contains(got, want) {
					t.Errorf("GET %s missing %q:\n%s", tc.path, want, got)
				}
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
