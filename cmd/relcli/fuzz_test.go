package main

import (
	"bytes"
	"encoding/json"
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
// oversized documents are 400s, never 500s. The corpus starts from the
// chaos-drill document mix so mutation explores realistic specs.
func FuzzSolveBody(f *testing.F) {
	for _, d := range chaosDocs {
		f.Add([]byte(d.doc))
	}
	f.Add([]byte(``))
	f.Add([]byte(`{"type":`))
	f.Add([]byte(`{"type":"ctmc","ctmc":null}`))
	f.Add(bytes.Repeat([]byte("x"), 8192))

	failpoint.Reset()
	const maxBody = 4096
	_, mux, err := newSolveServer(serveConfig{
		Registry:     metrics.NewRegistry(),
		MaxInflight:  1,
		MaxBody:      maxBody,
		SolveTimeout: 2 * time.Second,
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
		_, perr := modelio.Parse(bytes.NewReader(data))
		if perr != nil || int64(len(data)) > maxBody {
			if res.StatusCode != http.StatusBadRequest {
				t.Fatalf("undecodable body answered %d (code %q, error %q), want 400",
					res.StatusCode, resp.Code, resp.Error)
			}
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
