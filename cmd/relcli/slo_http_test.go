package main

import (
	"bytes"
	"encoding/json"
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
	"repro/internal/slo"
)

// wide-event scrubbers: ts and wall are the only timing-dependent
// fields; everything else (corr under a pinned seed, model hash, trace
// ID, solver) is deterministic and stays locked by the golden.
var (
	wideTSRE   = regexp.MustCompile(`"ts":"[^"]*"`)
	wideWallRE = regexp.MustCompile(`"wall_ms":[0-9.e+-]+`)
)

func scrubWide(s string) string {
	s = wideTSRE.ReplaceAllString(s, `"ts":"TS"`)
	return wideWallRE.ReplaceAllString(s, `"wall_ms":0`)
}

// TestServeCorrWideEventTraceRoundTrip is the correlation acceptance
// lock: one solve emits one wide-event line whose corr matches the
// X-Rel-Correlation-Id response header, whose trace field names a
// retained trace, and whose corr resolves that same trace back through
// GET /api/traces?corr=. The scrubbed wide line is golden.
func TestServeCorrWideEventTraceRoundTrip(t *testing.T) {
	var wide bytes.Buffer
	mux := mustServeMux(t, serveConfig{
		Registry:   metrics.NewRegistry(),
		CorrSeed:   1,
		WideWriter: &wide,
	})

	w := postModel(t, mux, filepath.Join("..", "..", "models", "repairfarm.json"), "")
	if w.Code != http.StatusOK {
		t.Fatalf("POST /solve: status %d: %s", w.Code, w.Body.String())
	}
	corr := w.Header().Get(obs.CorrHeader)
	if corr == "" {
		t.Fatal("solve response missing " + obs.CorrHeader)
	}

	line := strings.TrimSpace(wide.String())
	if strings.Count(line, "\n") != 0 || line == "" {
		t.Fatalf("expected exactly one wide-event line, got:\n%s", wide.String())
	}
	var ev obs.WideEvent
	if err := json.Unmarshal([]byte(line), &ev); err != nil {
		t.Fatalf("wide line is not JSON: %v\n%s", err, line)
	}
	if ev.Corr != corr {
		t.Errorf("wide event corr %q != response header %q", ev.Corr, corr)
	}
	if ev.Trace == "" {
		t.Fatalf("wide event carries no trace ID: %s", line)
	}
	if ev.Route != "/solve" || ev.Status != 200 || ev.Outcome != "ok" {
		t.Errorf("wide event route/status/outcome = %q/%d/%q", ev.Route, ev.Status, ev.Outcome)
	}

	// The join: corr from the log line resolves to the same trace.
	req := httptest.NewRequest(http.MethodGet, "/api/traces?corr="+ev.Corr, nil)
	tw := httptest.NewRecorder()
	mux.ServeHTTP(tw, req)
	var payload struct {
		Traces []obs.TraceRecord `json:"traces"`
	}
	if err := json.Unmarshal(tw.Body.Bytes(), &payload); err != nil {
		t.Fatal(err)
	}
	if len(payload.Traces) != 1 || payload.Traces[0].ID != ev.Trace || payload.Traces[0].Corr != ev.Corr {
		t.Fatalf("GET /api/traces?corr=%s returned %+v, want the single trace %q", ev.Corr, payload.Traces, ev.Trace)
	}

	got := scrubWide(line) + "\n"
	golden := filepath.Join("testdata", "wide_solve.golden")
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
		t.Errorf("wide event drifted from %s; rerun with -update if intended.\ngot:\n%s", golden, got)
	}
}

// TestServeCorrInboundHeader: a sane client-supplied correlation ID is
// honored end to end; a hostile one is replaced.
func TestServeCorrInboundHeader(t *testing.T) {
	var wide bytes.Buffer
	mux := mustServeMux(t, serveConfig{
		Registry:   metrics.NewRegistry(),
		CorrSeed:   1,
		WideWriter: &wide,
	})
	body, err := os.ReadFile(filepath.Join("..", "..", "models", "repairfarm.json"))
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(body))
	req.Header.Set(obs.CorrHeader, "client-supplied_01")
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, req)
	if got := w.Header().Get(obs.CorrHeader); got != "client-supplied_01" {
		t.Errorf("inbound corr not honored: got %q", got)
	}
	if !strings.Contains(wide.String(), `"corr":"client-supplied_01"`) {
		t.Errorf("wide event does not carry inbound corr:\n%s", wide.String())
	}

	req = httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(body))
	req.Header.Set(obs.CorrHeader, "evil\nheader{}")
	w = httptest.NewRecorder()
	mux.ServeHTTP(w, req)
	got := w.Header().Get(obs.CorrHeader)
	if got == "" || strings.ContainsAny(got, "\n{}") {
		t.Errorf("hostile corr not replaced: %q", got)
	}
}

// TestServeAPISLO locks the /api/slo contract: enabled with the default
// objectives, per-window statuses after traffic, and an honest
// model_error while the self-model sampler is off.
func TestServeAPISLO(t *testing.T) {
	mux := mustServeMux(t, serveConfig{Registry: metrics.NewRegistry()})
	if w := postModel(t, mux, filepath.Join("..", "..", "models", "repairfarm.json"), ""); w.Code != http.StatusOK {
		t.Fatalf("solve: status %d", w.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/api/slo", nil)
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /api/slo: status %d", w.Code)
	}
	var payload struct {
		Enabled    bool                  `json:"enabled"`
		Objectives []slo.ObjectiveStatus `json:"objectives"`
		Measured   *float64              `json:"measured_availability"`
		ModelError string                `json:"model_error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &payload); err != nil {
		t.Fatal(err)
	}
	if !payload.Enabled || len(payload.Objectives) != 2 {
		t.Fatalf("payload %+v, want enabled with the 2 default objectives", payload)
	}
	if payload.Measured == nil || *payload.Measured != 1 {
		t.Errorf("measured availability = %v, want 1 after one good solve", payload.Measured)
	}
	if payload.ModelError != "self-model sampler disabled" {
		t.Errorf("model_error = %q", payload.ModelError)
	}
	for _, o := range payload.Objectives {
		if len(o.Windows) == 0 {
			t.Errorf("objective %s has no windows", o.Name)
		}
	}
}

// TestServeHealthzSLOSummary: /healthz carries the probe-sized SLO
// digest (worst burn, budget remaining) once traffic has flowed, and
// stays parseable by pre-SLO clients (plain additive key).
func TestServeHealthzSLOSummary(t *testing.T) {
	mux := mustServeMux(t, serveConfig{Registry: metrics.NewRegistry()})
	if w := postModel(t, mux, filepath.Join("..", "..", "models", "repairfarm.json"), ""); w.Code != http.StatusOK {
		t.Fatalf("solve: status %d", w.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /healthz: status %d", w.Code)
	}
	var resp struct {
		Status string `json:"status"`
		SLO    *struct {
			WorstBurn       float64 `json:"worst_burn"`
			BudgetRemaining float64 `json:"budget_remaining"`
			Breaching       bool    `json:"breaching"`
		} `json:"slo"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.SLO == nil {
		t.Fatalf("/healthz missing slo summary: %s", w.Body.String())
	}
	if resp.SLO.Breaching || resp.SLO.WorstBurn != 0 || resp.SLO.BudgetRemaining != 1 {
		t.Errorf("healthy slo digest wrong: %+v", *resp.SLO)
	}
}

// TestServeSLOBurnOnFailures: server-side failures burn the budget —
// the engine sees the 5xx stream and /api/slo reports a breach once
// enough bad events accumulate (tiny objective keeps it fast).
func TestServeSLOBurnOnFailures(t *testing.T) {
	mux := mustServeMux(t, serveConfig{
		Registry: metrics.NewRegistry(),
		SLOObjectives: []slo.Objective{
			{Name: "strict", Match: map[string]string{"route": "/solve"}, Target: 0.99},
		},
	})
	// Malformed spec => 400: client errors must NOT burn the budget.
	for i := 0; i < 12; i++ {
		if w := postJSON(t, mux, `{"type":"nope"}`); w.Code != http.StatusBadRequest {
			t.Fatalf("bad spec: status %d", w.Code)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/api/slo", nil)
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, req)
	var p struct {
		Objectives []slo.ObjectiveStatus `json:"objectives"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if len(p.Objectives) != 1 || p.Objectives[0].Breaching {
		t.Fatalf("client 4xx burned the budget: %+v", p.Objectives)
	}

	// Injected solver failures => 500s: these must burn.
	t.Cleanup(failpoint.Reset)
	if err := failpoint.Arm("modelio.build", "error(injected)"); err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "models", "repairfarm.json"))
	if err != nil {
		t.Fatal(err)
	}
	// The first failures are 500s; once the class breaker opens the rest
	// become 503 breaker-open — every one of them a budget-burning 5xx.
	for i := 0; i < 12; i++ {
		w := postJSON(t, mux, string(doc))
		if w.Code != http.StatusInternalServerError && w.Code != http.StatusServiceUnavailable {
			t.Fatalf("injected failure: status %d: %s", w.Code, w.Body.String())
		}
	}
	w = httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/api/slo", nil))
	if err := json.Unmarshal(w.Body.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	o := p.Objectives[0]
	if !o.Breaching || o.WorstBurn <= 1 || o.BudgetRemaining >= 1 {
		t.Errorf("injected 5xx stream did not burn the budget: %+v", o)
	}
}

// TestServeAPIProfiles: with no -profile-dir the listing reports
// disabled; with one it lists captures (empty ring at boot).
func TestServeAPIProfiles(t *testing.T) {
	mux := mustServeMux(t, serveConfig{Registry: metrics.NewRegistry()})
	req := httptest.NewRequest(http.MethodGet, "/api/profiles", nil)
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, req)
	if !strings.Contains(w.Body.String(), `"enabled": false`) {
		t.Errorf("/api/profiles without a dir: %s", w.Body.String())
	}

	dir := t.TempDir()
	s, mux2, err := newSolveServer(serveConfig{Registry: metrics.NewRegistry(), ProfileDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.stopBackground)
	if _, err := s.profiles.CaptureHeap(); err != nil {
		t.Fatal(err)
	}
	w = httptest.NewRecorder()
	mux2.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/api/profiles", nil))
	var p struct {
		Enabled  bool `json:"enabled"`
		Profiles []struct {
			Name string `json:"name"`
			Kind string `json:"kind"`
		} `json:"profiles"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if !p.Enabled || len(p.Profiles) != 1 || p.Profiles[0].Kind != "heap" {
		t.Errorf("/api/profiles listing wrong: %+v", p)
	}
}

// TestServeSelfModelPrediction drives the self-model sampler by hand
// (no wall-clock waits): synthetic ok/open dwell ratios produce a
// steady-state availability prediction on /api/slo.
func TestServeSelfModelPrediction(t *testing.T) {
	s, mux, err := newSolveServer(serveConfig{
		Registry:       metrics.NewRegistry(),
		SelfModelEvery: time.Hour, // sampler "on" for reporting; ticks never fire in-test
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.stopBackground)
	base := time.Unix(1_700_000_000, 0)
	for cycle := 0; cycle < 4; cycle++ {
		s.selfModel.Step("ok", base)
		base = base.Add(9 * time.Second)
		s.selfModel.Step("open", base)
		base = base.Add(time.Second)
	}
	s.selfModel.Step("ok", base)
	s.predictSelf(base)

	w := httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/api/slo", nil))
	var p struct {
		Model *slo.Prediction `json:"model"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if p.Model == nil {
		t.Fatalf("no self-model prediction on /api/slo: %s", w.Body.String())
	}
	if p.Model.Availability < 0.85 || p.Model.Availability > 0.95 {
		t.Errorf("predicted availability %g, want ~0.9 (9s up / 1s down cycles)", p.Model.Availability)
	}
	if p.Model.Solver != "gth" {
		t.Errorf("prediction solver %q", p.Model.Solver)
	}
}
