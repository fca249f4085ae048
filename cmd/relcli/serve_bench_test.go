package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// BenchmarkServeSolveFixtures posts the bundled models (all but the
// deliberately broken lint fixtures) round-robin to POST /solve through
// the full serve handler stack. It touches only the HTTP surface, so its
// allocs/op and B/op track the per-request cost of the request path and
// its telemetry from one change to the next.
func BenchmarkServeSolveFixtures(b *testing.B) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "models", "*.json"))
	if err != nil {
		b.Fatal(err)
	}
	var docs [][]byte
	for _, p := range paths {
		if strings.HasPrefix(filepath.Base(p), "broken_") {
			continue
		}
		body, err := os.ReadFile(p)
		if err != nil {
			b.Fatal(err)
		}
		docs = append(docs, body)
	}
	mux, err := newServeMux(serveConfig{Registry: metrics.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(docs[i%len(docs)]))
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("POST /solve: status %d: %s", w.Code, w.Body.String())
		}
	}
}
