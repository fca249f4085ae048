package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/failpoint"
	"repro/internal/metrics"
	"repro/internal/modelio"
)

// FuzzSolveBody fuzzes the /solve request-body decoder through the real
// handler stack. Whatever bytes arrive, the server must answer a
// well-formed JSON solveResponse with a typed code; malformed or
// oversized documents are 400s, and a document whose own solve fails
// for a fault in the document is a 422, never a 5xx. The corpus starts
// from the chaos-drill document mix and the document faults, so
// mutation explores realistic specs.
func FuzzSolveBody(f *testing.F) {
	for _, d := range chaosDocs {
		f.Add([]byte(d.doc))
	}
	for _, d := range docFaults {
		f.Add([]byte(d.doc))
	}
	f.Add([]byte(``))
	f.Add([]byte(`{"type":`))
	f.Add([]byte(`{"type":"ctmc","ctmc":null}`))
	f.Add(bytes.Repeat([]byte("x"), 8192))

	failpoint.Reset()
	const maxBody, solveTimeout = 4096, 2 * time.Second
	_, mux, err := newSolveServer(serveConfig{
		Registry:     metrics.NewRegistry(),
		MaxInflight:  1,
		MaxBody:      maxBody,
		SolveTimeout: solveTimeout,
	})
	if err != nil {
		f.Fatal(err)
	}
	ts := httptest.NewServer(mux)
	f.Cleanup(ts.Close)

	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatalf("request did not terminate cleanly: %v", err)
		}
		body, rerr := io.ReadAll(res.Body)
		res.Body.Close()
		if rerr != nil {
			t.Fatalf("response body unreadable: %v", rerr)
		}
		var resp solveResponse
		if jerr := json.Unmarshal(body, &resp); jerr != nil {
			t.Fatalf("status %d body is not a solveResponse: %v\n%s", res.StatusCode, jerr, body)
		}

		// The decoder contract: a body the model parser rejects, or one
		// over the size limit, is the client's fault — 400 with a typed
		// code, never a 5xx.
		spec, perr := modelio.Parse(bytes.NewReader(data))
		if perr != nil || int64(len(data)) > maxBody {
			if res.StatusCode != http.StatusBadRequest {
				t.Fatalf("undecodable body answered %d (code %q, error %q), want 400",
					res.StatusCode, resp.Code, resp.Error)
			}
		} else if _, serr := modelio.SolveWithOptions(spec, modelio.SolveOptions{Timeout: solveTimeout}); errors.Is(serr, modelio.ErrBadSpec) &&
			resp.Code != "breaker-open" && (res.StatusCode != http.StatusUnprocessableEntity || resp.Code != "bad-spec") {
			// The document contract: a document the solve rejects as
			// faulty is the client's fault, whatever a breaker says.
			t.Fatalf("document fault %q answered %d (code %q), want 422 bad-spec", serr, res.StatusCode, resp.Code)
		}
		if res.StatusCode >= http.StatusInternalServerError && resp.Code == "bad-spec" {
			t.Fatalf("status %d carries code bad-spec: %q", res.StatusCode, resp.Error)
		}
		if !allowedChaosStatus[res.StatusCode] {
			t.Fatalf("status %d outside the typed-outcome set (code %q, error %q)",
				res.StatusCode, resp.Code, resp.Error)
		}
		if res.StatusCode != http.StatusOK && resp.Code == "" {
			t.Errorf("status %d without a typed code: %q", res.StatusCode, resp.Error)
		}
		for _, r := range resp.Results {
			if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) {
				t.Errorf("measure %q returned non-finite value %v", r.Measure, r.Value)
			}
		}
	})
}
