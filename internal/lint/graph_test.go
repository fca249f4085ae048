package lint

import (
	"strings"
	"testing"

	"repro/internal/modelio"
)

func TestCheckRelGraphBadTerminals(t *testing.T) {
	ds := CheckRelGraph(&modelio.RelGraphSpec{
		Edges:  []modelio.RGEdge{{Name: "e1", From: "s", To: "t", Rel: 0.9}},
		Source: "s",
		Target: "elsewhere",
	})
	wantCode(t, ds, CodeRGBadTerminal, SevError)

	ds = CheckRelGraph(&modelio.RelGraphSpec{Edges: []modelio.RGEdge{{Name: "e1", From: "s", To: "t", Rel: 0.9}}})
	if got := codes(ds)[CodeRGBadTerminal]; got != 2 {
		t.Errorf("want 2 RG001 (source and target undeclared), got %d: %v", got, ds)
	}
}

func TestCheckRelGraphRelRange(t *testing.T) {
	ds := CheckRelGraph(&modelio.RelGraphSpec{
		Edges:  []modelio.RGEdge{{Name: "e1", From: "s", To: "t", Rel: 1.25}},
		Source: "s", Target: "t",
	})
	d := wantCode(t, ds, CodeRGRelRange, SevError)
	if d.Path != "relgraph.edges[0].rel" {
		t.Errorf("bad path %q", d.Path)
	}
}

func TestCheckRelGraphUnreachable(t *testing.T) {
	// Edge points t -> s, so t is not reachable from s.
	ds := CheckRelGraph(&modelio.RelGraphSpec{
		Edges:  []modelio.RGEdge{{Name: "e1", From: "t", To: "s", Rel: 0.9}},
		Source: "s", Target: "t",
	})
	wantCode(t, ds, CodeRGUnreachable, SevError)
}

func TestCheckRelGraphDuplicateEdgeAndOffPath(t *testing.T) {
	ds := CheckRelGraph(&modelio.RelGraphSpec{
		Edges: []modelio.RGEdge{
			{Name: "e1", From: "s", To: "t", Rel: 0.9},
			{Name: "e1", From: "s", To: "stub", Rel: 0.9},
		},
		Source: "s", Target: "t",
	})
	wantCode(t, ds, CodeRGDuplicateEdge, SevWarning)
	d := wantCode(t, ds, CodeRGOffPath, SevWarning)
	if !strings.Contains(d.Msg, "stub") {
		t.Errorf("off-path warning should name the node: %s", d.Msg)
	}
}

func TestCheckRelGraphSelfLoop(t *testing.T) {
	ds := CheckRelGraph(&modelio.RelGraphSpec{
		Edges: []modelio.RGEdge{
			{Name: "e1", From: "s", To: "t", Rel: 0.9},
			{Name: "loop", From: "s", To: "s", Rel: 0.5},
		},
		Source: "s", Target: "t",
	})
	wantCode(t, ds, CodeRGSelfLoop, SevWarning)
}

func TestCheckRelGraphClean(t *testing.T) {
	ds := CheckRelGraph(&modelio.RelGraphSpec{
		Edges: []modelio.RGEdge{
			{Name: "e1", From: "s", To: "a", Rel: 0.95},
			{Name: "e2", From: "s", To: "b", Rel: 0.9},
			{Name: "e3", From: "a", To: "b", Rel: 0.8},
			{Name: "e4", From: "a", To: "t", Rel: 0.95},
			{Name: "e5", From: "b", To: "t", Rel: 0.9},
		},
		Source: "s", Target: "t",
	})
	if len(ds) != 0 {
		t.Errorf("clean graph produced diagnostics: %v", ds)
	}
}
