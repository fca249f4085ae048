package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/metrics"
)

// jobDoc is a small sweep job over the two-state pair model: lognormal
// uncertainty on the failure rate, 200 samples in 4 shards.
const jobDoc = `{
  "model": {"type":"ctmc","name":"pair","ctmc":{"transitions":[
    {"from":"up","to":"down","rate":0.01},{"from":"down","to":"up","rate":1}],
    "upStates":["up"],"measures":["availability"]}},
  "measure": "availability",
  "params": [{"name":"lambda","dist":{"kind":"lognormal","mu":-4.6,"sigma":0.3},"from":"up","to":"down"}],
  "samples": 200,
  "shard_size": 50,
  "seed": 7
}`

// jobRequest fires one request at the mux and decodes the jobResponse.
func jobRequest(t *testing.T, mux *http.ServeMux, method, path, body string, hdr map[string]string) (*httptest.ResponseRecorder, jobResponse) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, req)
	var resp jobResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("%s %s: response is not JSON: %v\n%s", method, path, err, w.Body.String())
	}
	return w, resp
}

// waitJobDone polls GET /jobs/{id} until the job leaves the running
// state, mirroring how an HTTP client would.
func waitJobDone(t *testing.T, mux *http.ServeMux, id string) jobResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		_, resp := jobRequest(t, mux, http.MethodGet, "/jobs/"+id, "", nil)
		if resp.Job != nil && resp.Job.State != jobs.StateRunning {
			return resp
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s still running after 30s", id)
	return jobResponse{}
}

// TestServeJobLifecycle drives the full happy path over HTTP: submit,
// poll to completion, list, and verify the folded result is present.
func TestServeJobLifecycle(t *testing.T) {
	mux := mustServeMux(t, serveConfig{Registry: metrics.NewRegistry()})

	w, resp := jobRequest(t, mux, http.MethodPost, "/jobs", jobDoc, nil)
	if w.Code != http.StatusCreated {
		t.Fatalf("POST /jobs: status %d: %s", w.Code, w.Body.String())
	}
	if resp.Job == nil || resp.Job.ID == "" {
		t.Fatalf("submit reply carries no job: %s", w.Body.String())
	}
	if loc := w.Header().Get("Location"); loc != "/jobs/"+resp.Job.ID {
		t.Fatalf("Location %q, want /jobs/%s", loc, resp.Job.ID)
	}
	if resp.Job.Shards != 4 {
		t.Fatalf("shards %d, want 4", resp.Job.Shards)
	}

	final := waitJobDone(t, mux, resp.Job.ID)
	if final.Job.State != jobs.StateDone {
		t.Fatalf("state %s (%s), want done", final.Job.State, final.Job.Error)
	}
	if final.Job.Result == nil || final.Job.Result.N != 200 {
		t.Fatalf("result %+v, want N=200", final.Job.Result)
	}

	_, list := jobRequest(t, mux, http.MethodGet, "/jobs", "", nil)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != resp.Job.ID {
		t.Fatalf("list %+v, want the one submitted job", list.Jobs)
	}
}

// TestServeJobIdempotency pins the Idempotency-Key contract: same key →
// same job with 200, no duplicate started.
func TestServeJobIdempotency(t *testing.T) {
	mux := mustServeMux(t, serveConfig{Registry: metrics.NewRegistry()})
	hdr := map[string]string{"Idempotency-Key": "sweep-42"}

	w1, r1 := jobRequest(t, mux, http.MethodPost, "/jobs", jobDoc, hdr)
	if w1.Code != http.StatusCreated {
		t.Fatalf("first POST: status %d", w1.Code)
	}
	w2, r2 := jobRequest(t, mux, http.MethodPost, "/jobs", jobDoc, hdr)
	if w2.Code != http.StatusOK {
		t.Fatalf("replayed POST: status %d, want 200", w2.Code)
	}
	if r1.Job.ID != r2.Job.ID {
		t.Fatalf("replay created a new job: %s vs %s", r1.Job.ID, r2.Job.ID)
	}
	_, list := jobRequest(t, mux, http.MethodGet, "/jobs", "", nil)
	if len(list.Jobs) != 1 {
		t.Fatalf("%d jobs exist after replayed submit, want 1", len(list.Jobs))
	}
}

// TestServeJobErrors pins the HTTP error taxonomy of the /jobs routes.
func TestServeJobErrors(t *testing.T) {
	s, mux, err := newSolveServer(serveConfig{Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}

	w, resp := jobRequest(t, mux, http.MethodPost, "/jobs", `{"measure":"availability"}`, nil)
	if w.Code != http.StatusBadRequest || resp.Code != "bad-spec" {
		t.Fatalf("specless submit: %d/%s, want 400/bad-spec", w.Code, resp.Code)
	}
	w, resp = jobRequest(t, mux, http.MethodGet, "/jobs/j999", "", nil)
	if w.Code != http.StatusNotFound || resp.Code != "unknown-job" {
		t.Fatalf("unknown get: %d/%s, want 404/unknown-job", w.Code, resp.Code)
	}
	w, resp = jobRequest(t, mux, http.MethodDelete, "/jobs/j999", "", nil)
	if w.Code != http.StatusNotFound || resp.Code != "unknown-job" {
		t.Fatalf("unknown delete: %d/%s, want 404/unknown-job", w.Code, resp.Code)
	}

	// A finished job refuses a second cancel with 409.
	w, sub := jobRequest(t, mux, http.MethodPost, "/jobs", jobDoc, nil)
	if w.Code != http.StatusCreated {
		t.Fatalf("submit: status %d", w.Code)
	}
	waitJobDone(t, mux, sub.Job.ID)
	w, resp = jobRequest(t, mux, http.MethodDelete, "/jobs/"+sub.Job.ID, "", nil)
	if w.Code != http.StatusConflict || resp.Code != "terminal" {
		t.Fatalf("terminal delete: %d/%s, want 409/terminal", w.Code, resp.Code)
	}

	// A draining server refuses submissions with 503 before reading the body.
	s.draining.Store(true)
	w, resp = jobRequest(t, mux, http.MethodPost, "/jobs", jobDoc, nil)
	if w.Code != http.StatusServiceUnavailable || resp.Code != "draining" {
		t.Fatalf("draining submit: %d/%s, want 503/draining", w.Code, resp.Code)
	}
}

// TestServeJobCancel cancels a running job over HTTP and checks the
// terminal snapshot comes back canceled.
func TestServeJobCancel(t *testing.T) {
	mux := mustServeMux(t, serveConfig{Registry: metrics.NewRegistry()})
	big := strings.Replace(jobDoc, `"samples": 200`, `"samples": 100000`, 1)
	w, sub := jobRequest(t, mux, http.MethodPost, "/jobs", big, nil)
	if w.Code != http.StatusCreated {
		t.Fatalf("submit: status %d: %s", w.Code, w.Body.String())
	}
	w, resp := jobRequest(t, mux, http.MethodDelete, "/jobs/"+sub.Job.ID, "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("cancel: status %d: %s", w.Code, w.Body.String())
	}
	if resp.Job.State != jobs.StateCanceled {
		t.Fatalf("state %s, want canceled", resp.Job.State)
	}
}

// TestServeJobRecoverAcrossServers is the HTTP-level durability check: a
// server with a jobs dir is killed mid-job and a second server over the
// same dir finishes it with the exact result an uninterrupted run gets.
func TestServeJobRecoverAcrossServers(t *testing.T) {
	dir := t.TempDir()

	// Reference: uninterrupted run of the same document, in memory.
	refMux := mustServeMux(t, serveConfig{Registry: metrics.NewRegistry()})
	_, refSub := jobRequest(t, refMux, http.MethodPost, "/jobs", jobDoc, nil)
	ref := waitJobDone(t, refMux, refSub.Job.ID)
	if ref.Job.State != jobs.StateDone {
		t.Fatalf("reference run: %s (%s)", ref.Job.State, ref.Job.Error)
	}

	// Victim: durable server, killed immediately after submission.
	victim, victimMux, err := newSolveServer(serveConfig{
		Registry: metrics.NewRegistry(), JobsDir: dir, JobWorkers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, sub := jobRequest(t, victimMux, http.MethodPost, "/jobs", jobDoc, nil)
	if w.Code != http.StatusCreated {
		t.Fatalf("victim submit: status %d", w.Code)
	}
	victim.jobs.Abort()

	// Survivor: fresh server over the same dir resumes and finishes.
	survivor, survivorMux, err := newSolveServer(serveConfig{
		Registry: metrics.NewRegistry(), JobsDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if survivor.jobsResumed != 1 {
		t.Fatalf("survivor resumed %d jobs, want 1", survivor.jobsResumed)
	}
	final := waitJobDone(t, survivorMux, sub.Job.ID)
	if final.Job.State != jobs.StateDone {
		t.Fatalf("resumed job: %s (%s)", final.Job.State, final.Job.Error)
	}
	if !final.Job.Resumed {
		t.Fatal("resumed job not flagged as resumed")
	}
	got, _ := json.Marshal(final.Job.Result)
	want, _ := json.Marshal(ref.Job.Result)
	if string(got) != string(want) {
		t.Fatalf("resumed result differs from uninterrupted run:\n%s\n%s", got, want)
	}
}
