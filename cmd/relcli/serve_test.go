package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/failpoint"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// mustServeMux builds the serve routes or fails the test; the only
// error path is a broken embedded dashboard template.
func mustServeMux(t *testing.T, cfg serveConfig) *http.ServeMux {
	t.Helper()
	mux, err := newServeMux(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return mux
}

// postModel POSTs a bundled model file at the handler and returns the
// recorder.
func postModel(t *testing.T, h http.Handler, path, query string) *httptest.ResponseRecorder {
	t.Helper()
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/solve"+query, bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// sampleRE scrubs the numeric value of an exposition sample line so the
// golden locks schema (families, label sets, bucket bounds) rather than
// timing-dependent numbers.
var sampleRE = regexp.MustCompile(`(?m)^([^#].*) \S+$`)

func scrubSamples(s string) string {
	return sampleRE.ReplaceAllString(s, "$1 V")
}

// TestServeSolveAndMetricsGolden is the acceptance lock for relcli
// serve: POST /solve answers for models/repairfarm.json (pinned SOR) and
// models/loadbalancer.json (fallback chain), and /metrics then exposes
// the request counter, the per-solver wall-time histograms, and the
// guard/fallback counters. The scrubbed exposition output is golden.
func TestServeSolveAndMetricsGolden(t *testing.T) {
	mux := mustServeMux(t, serveConfig{Registry: metrics.NewRegistry(), MaxInflight: 2})

	w := postModel(t, mux, filepath.Join("..", "..", "models", "repairfarm.json"), "")
	if w.Code != http.StatusOK {
		t.Fatalf("POST /solve repairfarm: status %d: %s", w.Code, w.Body.String())
	}
	var resp struct {
		Model   string `json:"model"`
		Results []struct {
			Measure string  `json:"measure"`
			Value   float64 `json:"value"`
		} `json:"results"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("solve response is not JSON: %v\n%s", err, w.Body.String())
	}
	avail := -1.0
	for _, r := range resp.Results {
		if r.Measure == "availability" {
			avail = r.Value
		}
	}
	if avail < 0.9 || avail > 1 {
		t.Errorf("repairfarm availability = %g, want in (0.9, 1]", avail)
	}

	w = postModel(t, mux, filepath.Join("..", "..", "models", "loadbalancer.json"), "")
	if w.Code != http.StatusOK {
		t.Fatalf("POST /solve loadbalancer: status %d: %s", w.Code, w.Body.String())
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	mw := httptest.NewRecorder()
	mux.ServeHTTP(mw, req)
	if mw.Code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", mw.Code)
	}
	if ct := mw.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content type %q", ct)
	}
	got := scrubSamples(mw.Body.String())

	golden := filepath.Join("testdata", "serve_metrics.golden")
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
		t.Errorf("/metrics drifted from %s; rerun with -update if intended.\ngot:\n%s", golden, got)
	}

	// The acceptance criteria spelled out, independent of the golden file.
	for _, want := range []string{
		`relscope_solve_requests_total{code="200"} `,
		`relscope_solver_wall_seconds_bucket{solver="sor",model="machine repair farm (SOR steady state)",le="+Inf"} `,
		`relscope_chain_attempts_total{chain="steadystate",method="sor",class="none",model="two-node load balancer (chain solver)"} `,
		`relscope_chain_decided_total{chain="steadystate",winner="sor",model="two-node load balancer (chain solver)"} `,
		"# TYPE relscope_guard_outcomes_total counter",
		"# TYPE relscope_rail_warnings_total counter",
	} {
		if !strings.Contains(mw.Body.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestServeFlagsGolden pins the serve command line: the name, default
// and usage of every flag. A new knob shows up here as a golden diff.
func TestServeFlagsGolden(t *testing.T) {
	var b strings.Builder
	serveFlagSet(&serveFlags{}).VisitAll(func(f *flag.Flag) {
		fmt.Fprintf(&b, "-%s %q\n\t%s\n", f.Name, f.DefValue, f.Usage)
	})
	got := b.String()
	golden := filepath.Join("testdata", "serve_flags.golden")
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
		t.Errorf("serve flags drifted from %s; rerun with -update if intended.\ngot:\n%s", golden, got)
	}
}

// TestServeTraceQuery checks ?trace=1 returns the request-scoped span
// tree alongside the results.
func TestServeTraceQuery(t *testing.T) {
	mux := mustServeMux(t, serveConfig{Registry: metrics.NewRegistry()})
	w := postModel(t, mux, filepath.Join("..", "..", "models", "repairfarm.json"), "?trace=1")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp struct {
		Trace *struct {
			Name     string `json:"name"`
			Children []struct {
				Name string `json:"name"`
			} `json:"children"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil || len(resp.Trace.Children) == 0 || resp.Trace.Children[0].Name != "modelio.solve" {
		t.Errorf("trace missing or malformed: %s", w.Body.String())
	}
}

func TestServeRejectsBadInput(t *testing.T) {
	mux := mustServeMux(t, serveConfig{Registry: metrics.NewRegistry()})

	req := httptest.NewRequest(http.MethodPost, "/solve", strings.NewReader("{not json"))
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", w.Code)
	}

	req = httptest.NewRequest(http.MethodPost, "/solve", strings.NewReader(`{"type":"ctmc","ctmc":{"transitions":[{"from":"a","to":"b","rate":1}],"measures":["no-such-measure"]}}`))
	w = httptest.NewRecorder()
	mux.ServeHTTP(w, req)
	if w.Code != http.StatusUnprocessableEntity {
		t.Errorf("bad measure: status %d, want 422: %s", w.Code, w.Body.String())
	}

	req = httptest.NewRequest(http.MethodGet, "/solve", nil)
	w = httptest.NewRecorder()
	mux.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /solve: status %d, want 405", w.Code)
	}

	// A parser that broke is not the body's fault: 500 injected.
	t.Cleanup(failpoint.Reset)
	if err := failpoint.Arm("modelio.parse", "error"); err != nil {
		t.Fatal(err)
	}
	if w := postModel(t, mux, filepath.Join("..", "..", "models", "duplex.json"), ""); w.Code != http.StatusInternalServerError ||
		decodeSolve(t, w).Code != "injected" {
		t.Errorf("broken parser: status %d %s, want 500 injected", w.Code, w.Body.String())
	}
}

// TestServeTimeout pins the guard plumbing: a sub-microsecond solve
// budget must surface as 504 with the deadline error in the body.
func TestServeTimeout(t *testing.T) {
	mux := mustServeMux(t, serveConfig{Registry: metrics.NewRegistry(), SolveTimeout: time.Nanosecond})
	w := postModel(t, mux, filepath.Join("..", "..", "models", "repairfarm.json"), "")
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "deadline") {
		t.Errorf("body does not name the deadline: %s", w.Body.String())
	}
}

// TestServeHealthz checks /healthz reports liveness as JSON with the
// operational context: uptime, in-flight solves, trace-store occupancy.
func TestServeHealthz(t *testing.T) {
	mux := mustServeMux(t, serveConfig{Registry: metrics.NewRegistry()})
	w := postModel(t, mux, filepath.Join("..", "..", "models", "repairfarm.json"), "")
	if w.Code != http.StatusOK {
		t.Fatalf("warm-up solve: status %d", w.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w = httptest.NewRecorder()
	mux.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("healthz: status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Errorf("healthz Content-Type %q", ct)
	}
	if cc := w.Header().Get("Cache-Control"); cc != "no-store" {
		t.Errorf("healthz Cache-Control %q, want no-store", cc)
	}
	var h struct {
		Status   string  `json:"status"`
		UptimeS  float64 `json:"uptime_s"`
		InFlight int     `json:"in_flight"`
		Store    struct {
			Len int `json:"len"`
			Cap int `json:"cap"`
		} `json:"trace_store"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
		t.Fatalf("healthz is not JSON: %v\n%s", err, w.Body.String())
	}
	if h.Status != "ok" || h.UptimeS < 0 || h.InFlight != 0 {
		t.Errorf("healthz body: %+v", h)
	}
	if h.Store.Len != 1 || h.Store.Cap != 256 {
		t.Errorf("trace_store occupancy = %+v, want 1/256 after one solve", h.Store)
	}
}

// TestServeStructuredLogs checks -log rides along on solve requests: one
// span event per solver span plus the request summary, every span event
// carrying the request's correlation ID so it joins its request line.
func TestServeStructuredLogs(t *testing.T) {
	var logBuf bytes.Buffer
	logger, err := newSlogLogger("json", "info", &logBuf)
	if err != nil {
		t.Fatal(err)
	}
	mux := mustServeMux(t, serveConfig{Registry: metrics.NewRegistry(), Logger: logger})
	w := postModel(t, mux, filepath.Join("..", "..", "models", "repairfarm.json"), "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	logs := logBuf.String()
	if !strings.Contains(logs, `"span":"modelio.solve"`) || !strings.Contains(logs, `"solver":"sor"`) {
		t.Errorf("missing span events:\n%s", logs)
	}
	var requestCorr string
	var spanCorrs []string
	for _, line := range strings.Split(strings.TrimSpace(logs), "\n") {
		var ev struct {
			Msg  string `json:"msg"`
			Corr string `json:"corr"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, line)
		}
		switch ev.Msg {
		case "request":
			requestCorr = ev.Corr
		case "span":
			spanCorrs = append(spanCorrs, ev.Corr)
		}
	}
	if header := w.Header().Get(obs.CorrHeader); requestCorr == "" || requestCorr != header {
		t.Fatalf("request event corr %q, response header %q:\n%s", requestCorr, header, logs)
	}
	if len(spanCorrs) == 0 {
		t.Fatalf("no span events:\n%s", logs)
	}
	for i, c := range spanCorrs {
		if c != requestCorr {
			t.Errorf("span event %d corr %q, want the request's %q", i, c, requestCorr)
		}
	}
}

// TestServeAnalyze: POST /analyze is the serve-side preflight — it
// returns the structural report without solving, and answers 422 when
// the document has error-severity findings.
func TestServeAnalyze(t *testing.T) {
	mux := mustServeMux(t, serveConfig{Registry: metrics.NewRegistry(), MaxInflight: 2})

	body, err := os.ReadFile(filepath.Join("..", "..", "models", "absorbing.json"))
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/analyze", bytes.NewReader(body))
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("POST /analyze absorbing: status %d: %s", w.Code, w.Body.String())
	}
	var rep analyzeFileReport
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Report == nil || rep.Report.States != 3 {
		t.Fatalf("missing or wrong structural report: %s", w.Body.String())
	}
	if rep.Report.Hint.Reduce != "restrict-recurrent" {
		t.Fatalf("hint.reduce = %q, want restrict-recurrent", rep.Report.Hint.Reduce)
	}

	broken, err := os.ReadFile(filepath.Join("..", "..", "models", "broken_rowsum.json"))
	if err != nil {
		t.Fatal(err)
	}
	req = httptest.NewRequest(http.MethodPost, "/analyze", bytes.NewReader(broken))
	w = httptest.NewRecorder()
	mux.ServeHTTP(w, req)
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("POST /analyze broken model: status %d, want 422", w.Code)
	}
}
