package obs

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestDebugServerRoutes boots the debug server on an ephemeral port and
// checks each mounted route answers 200 with the expected content type —
// previously untested plumbing.
func TestDebugServerRoutes(t *testing.T) {
	srv, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Addr == "" || !strings.Contains(srv.Addr, ":") {
		t.Fatalf("bound address %q", srv.Addr)
	}

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s body: %v", path, err)
		}
		return resp, string(body)
	}

	resp, body := get("/debug/pprof/")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/html") {
		t.Errorf("/debug/pprof/ content type %q", ct)
	}
	if !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ index missing profile list:\n%.200s", body)
	}

	resp, _ = get("/debug/vars")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/vars status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("/debug/vars content type %q", ct)
	}

	resp, body = get("/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content type %q", ct)
	}
	if !strings.Contains(body, "relprobe_traces_total") {
		t.Errorf("/metrics missing relprobe counters:\n%.300s", body)
	}

	if err := srv.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	// The listener must actually be released: a second server can bind
	// the same address.
	srv2, err := ServeDebug(srv.Addr)
	if err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
	srv2.Close()
}

// TestTraceCounterAdvances: starting a trace advances the process-wide
// relprobe_traces_total counter that /metrics exposes.
func TestTraceCounterAdvances(t *testing.T) {
	before := ctrTraces.Value()
	NewTrace("counted").Finish()
	if got := ctrTraces.Value(); got != before+1 {
		t.Fatalf("relprobe_traces_total did not advance: %g -> %g", before, got)
	}
}
