package reldash

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// TestParseTemplates fails `go test` on a broken embedded template, so a
// template error can never survive to the first page load. It also
// executes both pages against representative data: ParseFS alone does
// not catch a missing field or function reference.
func TestParseTemplates(t *testing.T) {
	tmpl, err := ParseTemplates()
	if err != nil {
		t.Fatalf("embedded templates do not parse: %v", err)
	}
	for _, name := range []string{"index", "trace", "span", "head", "header", "livejs"} {
		if tmpl.Lookup(name) == nil {
			t.Errorf("template %q not defined", name)
		}
	}

	tr := obs.NewTrace("m")
	sub := tr.Span("linalg.sor", obs.S("solver", "sor"))
	sub.Iter(1, 0.5)
	sub.Iter(2, 0.01)
	sub.End()
	rec := obs.RecordFromTrace(tr, "m", "solve")
	rec.ID, rec.Outcome, rec.Start = "t1", "ok", time.Unix(0, 0)

	var sb strings.Builder
	if err := tmpl.ExecuteTemplate(&sb, "trace", traceData{Rec: rec}); err != nil {
		t.Fatalf("trace template does not execute: %v", err)
	}
	if out := sb.String(); !strings.Contains(out, "linalg.sor") || !strings.Contains(out, "<svg") {
		t.Errorf("trace page missing span tree or sparkline:\n%s", out)
	}

	sb.Reset()
	data := indexData{
		Traces:   []obs.TraceRecord{rec},
		StoreLen: 1, StoreCap: 4,
		Solvers: []solverRow{{Solver: "sor", Model: "m", Count: 1, AvgMS: 2}},
	}
	if err := tmpl.ExecuteTemplate(&sb, "index", data); err != nil {
		t.Fatalf("index template does not execute: %v", err)
	}
	if out := sb.String(); !strings.Contains(out, "/ui/trace/t1") {
		t.Errorf("index page missing trace link:\n%s", out)
	}
}

// newTestHandler builds a handler over a populated store and registry.
func newTestHandler(t *testing.T, benchPath string) (*Handler, *obs.TraceStore) {
	t.Helper()
	store := obs.NewTraceStore(8)
	reg := metrics.NewRegistry()
	h, err := NewHandler(Config{
		Store:     store,
		Registry:  reg,
		BenchPath: benchPath,
		InFlight:  func() int { return 3 },
		Start:     time.Now().Add(-time.Minute),
	})
	if err != nil {
		t.Fatal(err)
	}
	return h, store
}

func get(t *testing.T, h *Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	mux := http.NewServeMux()
	h.Register(mux)
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

func TestHandlerHeaders(t *testing.T) {
	h, store := newTestHandler(t, "")
	store.Put(obs.TraceRecord{Model: "m", Endpoint: "solve"})
	for path, wantCT := range map[string]string{
		"/ui":            "text/html; charset=utf-8",
		"/ui/trace/t1":   "text/html; charset=utf-8",
		"/api/traces":    "application/json; charset=utf-8",
		"/api/traces/t1": "application/json; charset=utf-8",
		"/api/metrics":   "application/json; charset=utf-8",
		"/api/bench":     "application/json; charset=utf-8",
		"/api/summary":   "application/json; charset=utf-8",
	} {
		w := get(t, h, path)
		if w.Code != http.StatusOK {
			t.Errorf("GET %s: status %d", path, w.Code)
		}
		if got := w.Header().Get("Content-Type"); got != wantCT {
			t.Errorf("GET %s: Content-Type %q, want %q", path, got, wantCT)
		}
		if got := w.Header().Get("Cache-Control"); got != "no-store" {
			t.Errorf("GET %s: Cache-Control %q, want no-store", path, got)
		}
	}
}

// TestHandlerJobs pins the index Jobs panel: without a feed the panel
// is absent; with one, the fed snapshots render in it.
func TestHandlerJobs(t *testing.T) {
	h, _ := newTestHandler(t, "")
	if body := get(t, h, "/ui").Body.String(); strings.Contains(body, "Sweep jobs") {
		t.Error("index renders the Jobs panel without a feed")
	}

	store := obs.NewTraceStore(8)
	snaps := []*jobs.Snapshot{{ID: "j1", State: jobs.StateRunning, Samples: 1000, Shards: 10, DoneShards: 4, Resumed: true}}
	h2, err := NewHandler(Config{Store: store, Registry: metrics.NewRegistry(), Jobs: func() []*jobs.Snapshot { return snaps }})
	if err != nil {
		t.Fatal(err)
	}
	body := get(t, h2, "/ui").Body.String()
	for _, want := range []string{"Sweep jobs", "j1", "4/10 (40%)", "running"} {
		if !strings.Contains(body, want) {
			t.Errorf("index Jobs panel missing %q", want)
		}
	}
}

func TestHandlerTraceNotFound(t *testing.T) {
	h, _ := newTestHandler(t, "")
	if w := get(t, h, "/api/traces/t999"); w.Code != http.StatusNotFound {
		t.Errorf("/api/traces/t999: status %d, want 404", w.Code)
	}
	if w := get(t, h, "/ui/trace/t999"); w.Code != http.StatusNotFound {
		t.Errorf("/ui/trace/t999: status %d, want 404", w.Code)
	}
}

func TestHandlerSummary(t *testing.T) {
	h, store := newTestHandler(t, "")
	store.Put(obs.TraceRecord{Model: "m"})
	h.cfg.Window.Record(false)
	h.cfg.Window.Record(false)
	h.cfg.Window.Record(true)

	w := get(t, h, "/api/summary")
	var p summaryPayload
	if err := json.Unmarshal(w.Body.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if p.Requests != 3 || p.Errors != 1 {
		t.Errorf("requests/errors = %d/%d, want 3/1", p.Requests, p.Errors)
	}
	if p.ErrorRate < 0.33 || p.ErrorRate > 0.34 {
		t.Errorf("error rate = %v", p.ErrorRate)
	}
	if p.InFlight != 3 {
		t.Errorf("in_flight = %d, want 3 (from the InFlight func)", p.InFlight)
	}
	if p.UptimeS < 59 {
		t.Errorf("uptime = %v, want about a minute", p.UptimeS)
	}
	if p.TraceStore.Len != 1 || p.TraceStore.Cap != 8 {
		t.Errorf("trace_store = %+v", p.TraceStore)
	}
	if p.WindowS <= 0 || p.ThroughputPerS <= 0 {
		t.Errorf("window stats: %+v", p)
	}
}

func TestHandlerBenchMissingFile(t *testing.T) {
	h, _ := newTestHandler(t, "/nonexistent/BENCH.json")
	w := get(t, h, "/api/bench")
	var p benchPayload
	if err := json.Unmarshal(w.Body.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if p.Error == "" || len(p.Entries) != 0 {
		t.Errorf("missing baseline not reported: %+v", p)
	}
	// A missing baseline must not break the index page either.
	if w := get(t, h, "/ui"); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "bench baseline unavailable") {
		t.Errorf("/ui with missing baseline: %d", w.Code)
	}
}

// TestHandlerBenchCommittedBaseline reads the repository's own baseline,
// the file the root package's TestSuiteBaseline writes, so a change to
// its row format breaks here rather than on a live dashboard.
func TestHandlerBenchCommittedBaseline(t *testing.T) {
	h, _ := newTestHandler(t, "../../BENCH_solvers.json")
	var p benchPayload
	if err := json.Unmarshal(get(t, h, "/api/bench").Body.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if p.Error != "" || len(p.Entries) < 16 {
		t.Fatalf("committed baseline: error %q, %d rows", p.Error, len(p.Entries))
	}
	if p.Entries[0].ID != "E1" || p.Entries[15].ID != "E16" {
		t.Errorf("rows not in registry order: first %s, 16th %s", p.Entries[0].ID, p.Entries[15].ID)
	}
	for _, e := range p.Entries {
		if e.Title == "" || e.Allocs == 0 || e.WallMS <= 0 {
			t.Errorf("%s: incomplete row %+v", e.ID, e)
		}
	}
}

func TestHandlerTracesFilterQuery(t *testing.T) {
	h, store := newTestHandler(t, "")
	store.Put(obs.TraceRecord{Model: "a", Solver: "sor", Outcome: "ok"})
	store.Put(obs.TraceRecord{Model: "b", Solver: "gth", Outcome: "error"})

	w := get(t, h, "/api/traces?solver=gth&outcome=error")
	var p tracesPayload
	if err := json.Unmarshal(w.Body.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if p.Retained != 2 || p.Capacity != 8 {
		t.Errorf("occupancy: %+v", p)
	}
	if len(p.Traces) != 1 || p.Traces[0].Model != "b" {
		t.Errorf("filtered list: %+v", p.Traces)
	}
}

func TestSparklineDeterministic(t *testing.T) {
	iters := []obs.IterPoint{{N: 1, Residual: 1e-2}, {N: 2, Residual: 1e-4}, {N: 3, Residual: 1e-8}}
	a, b := sparklineSVG(iters), sparklineSVG(iters)
	if a == "" || a != b {
		t.Fatalf("sparkline not deterministic:\n%s\n%s", a, b)
	}
	if !strings.Contains(string(a), "polyline") {
		t.Errorf("sparkline is not an svg polyline: %s", a)
	}
	if got := sparklineSVG(iters[:1]); got != "" {
		t.Errorf("single-point sparkline should be empty, got %s", got)
	}
	// Non-positive residuals must not produce NaN coordinates.
	weird := []obs.IterPoint{{N: 1, Residual: 0}, {N: 2, Residual: 1e-3}}
	if s := string(sparklineSVG(weird)); strings.Contains(s, "NaN") {
		t.Errorf("sparkline leaked NaN: %s", s)
	}
}
