//go:build !race

// The race detector's instrumentation allocates, so the allocation gate
// only builds without it.

package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

// serveFixtures builds a serve mux over a fresh registry and reads the
// bundled models that solve cleanly (all but the deliberately broken
// lint fixtures), for the benchmark and the allocation gate below.
func serveFixtures(tb testing.TB) (*http.ServeMux, [][]byte) {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "models", "*.json"))
	if err != nil {
		tb.Fatal(err)
	}
	var docs [][]byte
	for _, p := range paths {
		if strings.HasPrefix(filepath.Base(p), "broken_") {
			continue
		}
		body, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		docs = append(docs, body)
	}
	mux, err := newServeMux(serveConfig{Registry: metrics.NewRegistry()})
	if err != nil {
		tb.Fatal(err)
	}
	return mux, docs
}

// postSolve posts one document to POST /solve and fails on a non-200.
func postSolve(tb testing.TB, mux http.Handler, doc []byte) {
	req := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(doc))
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		tb.Fatalf("POST /solve: status %d: %s", w.Code, w.Body.String())
	}
}

// BenchmarkServeSolveFixtures posts the fixtures round-robin to POST
// /solve through the full serve handler stack. It touches only the HTTP
// surface, so its allocs/op and B/op track the per-request cost of the
// request path and its telemetry from one change to the next.
func BenchmarkServeSolveFixtures(b *testing.B) {
	mux, docs := serveFixtures(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postSolve(b, mux, docs[i%len(docs)])
	}
}

// TestServeSolveAllocs gates the request path's allocations: one round
// of the fixtures through the serve mux must allocate within the suite
// gate's band (max(0.5%, 48 allocations), both directions; see
// baseline_test.go at the repository root) of the count in
// testdata/serve_allocs.golden. With -update it rewrites the golden.
func TestServeSolveAllocs(t *testing.T) {
	mux, docs := serveFixtures(t)
	got := testing.AllocsPerRun(10, func() {
		for _, doc := range docs {
			postSolve(t, mux, doc)
		}
	})
	t.Logf("serve round (%d fixtures): %.0f allocations", len(docs), got)
	golden := filepath.Join("testdata", "serve_allocs.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(fmt.Sprintf("%.0f\n", got)), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want, err := strconv.ParseFloat(strings.TrimSpace(string(data)), 64)
	if err != nil {
		t.Fatalf("%s: %v", golden, err)
	}
	if math.Abs(got-want) > 48 && core.RelativeError(want, got) > 0.005 {
		t.Errorf("serve round (%d fixtures): allocations %.0f -> %.0f (%+.2f%%), outside the 0.5%% / 48 band; if intended, regenerate with -update",
			len(docs), want, got, 100*(got-want)/want)
	}
}

// TestReadBodyGrowsAsBytesArrive: a request body's buffer grows with the
// bytes that have arrived, up to the declared Content-Length. A request
// that declares 8 MiB and sends 1 KiB must allocate under 64 KiB, a body
// of its declared size must end in a buffer of exactly that size, and a
// chunked body (no declared length) still reads whole.
func TestReadBodyGrowsAsBytesArrive(t *testing.T) {
	s, _, err := newSolveServer(serveConfig{Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.stopBackground)
	payload := bytes.Repeat([]byte("x"), 1<<10)
	read := func(declared int64) ([]byte, uint64) {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(payload))
		req.ContentLength = declared
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		body, msg, code := s.readBody(httptest.NewRecorder(), req, "model")
		runtime.ReadMemStats(&after)
		if code != "" {
			t.Fatalf("declared %d: %s: %s", declared, code, msg)
		}
		if !bytes.Equal(body, payload) {
			t.Fatalf("declared %d: read %d bytes, want the %d sent", declared, len(body), len(payload))
		}
		return body, after.TotalAlloc - before.TotalAlloc
	}
	if _, n := read(8 << 20); n >= 64<<10 {
		t.Errorf("declared 8 MiB, sent 1 KiB: allocated %d bytes, want under 64 KiB", n)
	}
	if body, _ := read(int64(len(payload))); cap(body) != len(payload) {
		t.Errorf("declared and sent %d bytes: buffer capacity %d, want exactly the body", len(payload), cap(body))
	}
	read(-1)
}
