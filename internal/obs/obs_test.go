package obs

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

func TestNopRecorder(t *testing.T) {
	r := Nop()
	if r.Enabled() {
		t.Error("nop recorder reports enabled")
	}
	child := r.Span("x", F("a", 1))
	if child.Enabled() {
		t.Error("nop child reports enabled")
	}
	// All calls must be harmless no-ops.
	child.Iter(1, 0.5)
	child.IterLabel(2, 0.25, "m")
	child.Set(S("k", "v"))
	child.End()
	r.End()
	if Or(nil) != Nop() {
		t.Error("Or(nil) != Nop()")
	}
	tr := NewTrace("t")
	if Or(tr) != Recorder(tr) {
		t.Error("Or(non-nil) must pass through")
	}
}

func TestTraceTreeAndJSON(t *testing.T) {
	tr := NewTrace("solve")
	tr.Set(S("model", "duplex"))
	outer := tr.Span("markov.steadystate", I("states", 3))
	inner := outer.Span("linalg.sor", S("solver", "sor"))
	inner.Iter(1, 0.5)
	inner.Iter(2, 0.25)
	inner.IterLabel(3, 0.125, "dominant")
	inner.Set(F("spectral_radius_est", 0.5))
	inner.End()
	outer.End()
	root := tr.Finish()

	if root.Name != "solve" {
		t.Fatalf("root name %q", root.Name)
	}
	if len(root.Children) != 1 || len(root.Children[0].Children) != 1 {
		t.Fatalf("unexpected tree shape: %+v", root)
	}
	leaf := root.Children[0].Children[0]
	if len(leaf.Iters) != 3 {
		t.Fatalf("iters = %d, want 3", len(leaf.Iters))
	}
	if leaf.Iters[2].Label != "dominant" {
		t.Errorf("iter label = %q", leaf.Iters[2].Label)
	}
	if leaf.WallNS < 0 || root.WallNS <= 0 {
		t.Errorf("wall times not stamped: leaf=%d root=%d", leaf.WallNS, root.WallNS)
	}
	if v, ok := leaf.Attr("spectral_radius_est"); !ok || v.(float64) != 0.5 { //numvet:allow float-eq exact round-trip of a stored constant
		t.Errorf("attr lookup = %v, %v", v, ok)
	}

	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	enc.SetIndent("", "  ")
	if err := enc.Encode(root); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatalf("trace JSON invalid: %v\n%s", err, sb.String())
	}
	for _, want := range []string{`"name": "linalg.sor"`, `"residual": 0.25`, `"solver": "sor"`, `"model": "duplex"`} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("JSON missing %s:\n%s", want, sb.String())
		}
	}
}

func TestTraceText(t *testing.T) {
	tr := NewTrace("root")
	sp := tr.Span("linalg.power", S("solver", "power"))
	sp.Iter(1, 1e-3)
	sp.Iter(2, 1e-6)
	sp.End()
	var sb strings.Builder
	if err := tr.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "linalg.power") || !strings.Contains(out, "iters=2") {
		t.Errorf("text trace missing content:\n%s", out)
	}
	if !strings.HasPrefix(strings.Split(out, "\n")[1], "  ") {
		t.Errorf("child span not indented:\n%s", out)
	}
}

func TestSummaryPicksDominantSolver(t *testing.T) {
	tr := NewTrace("E3")
	g := tr.Span("markov.steadystate", S("solver", "gth"))
	g.End()
	s := tr.Span("linalg.sor", S("solver", "sor"))
	for i := 1; i <= 5; i++ {
		s.Iter(i, 1.0/float64(i))
	}
	s.End()
	sum := tr.Summary()
	if sum.Solver != "sor" {
		t.Errorf("solver = %q, want sor", sum.Solver)
	}
	if sum.Iterations != 5 {
		t.Errorf("iterations = %d, want 5", sum.Iterations)
	}
	if sum.Spans != 3 {
		t.Errorf("spans = %d, want 3", sum.Spans)
	}
	if sum.WallNS <= 0 {
		t.Errorf("wall = %d", sum.WallNS)
	}
}

func TestServeDebug(t *testing.T) {
	ds, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	for _, path := range []string{"/debug/vars", "/debug/pprof/"} {
		resp, err := http.Get("http://" + ds.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}
