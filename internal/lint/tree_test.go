package lint

import (
	"strings"
	"testing"

	"repro/internal/modelio"
)

func TestCheckFaultTreeUnknownEvent(t *testing.T) {
	ds := CheckFaultTree(&modelio.FaultTreeSpec{
		Events: []modelio.FTEvent{{Name: "a", Prob: 0.1}},
		Top:    &modelio.GateSpec{Op: "or", Children: []*modelio.GateSpec{{Event: "a"}, {Event: "ghost"}}},
	})
	d := wantCode(t, ds, CodeFTUnknownEvent, SevError)
	if d.Path != "faulttree.top.children[1]" {
		t.Errorf("bad path %q", d.Path)
	}
}

func TestCheckFaultTreeArity(t *testing.T) {
	ds := CheckFaultTree(&modelio.FaultTreeSpec{
		Events: []modelio.FTEvent{{Name: "a"}, {Name: "b"}},
		Top:    &modelio.GateSpec{Op: "atleast", K: 3, Children: []*modelio.GateSpec{{Event: "a"}, {Event: "b"}}},
	})
	wantCode(t, ds, CodeFTArity, SevError)
}

func TestCheckFaultTreeProbRange(t *testing.T) {
	ds := CheckFaultTree(&modelio.FaultTreeSpec{
		Events: []modelio.FTEvent{{Name: "a", Prob: 1.5}},
		Top:    &modelio.GateSpec{Event: "a"},
	})
	wantCode(t, ds, CodeFTProbRange, SevError)
}

func TestCheckFaultTreeSharedEvent(t *testing.T) {
	// The Boeing-style shape: one event feeding two branches of an AND.
	ds := CheckFaultTree(&modelio.FaultTreeSpec{
		Events: []modelio.FTEvent{{Name: "power", Prob: 0.01}, {Name: "cpu", Prob: 0.1}},
		Top: &modelio.GateSpec{Op: "and", Children: []*modelio.GateSpec{
			{Op: "or", Children: []*modelio.GateSpec{{Event: "power"}, {Event: "cpu"}}},
			{Op: "or", Children: []*modelio.GateSpec{{Event: "power"}}},
		}},
	})
	d := wantCode(t, ds, CodeFTSharedSubtree, SevWarning)
	if !strings.Contains(d.Msg, "power") {
		t.Errorf("shared-subtree warning should name the event: %s", d.Msg)
	}
}

func TestCheckFaultTreeSharedGatePointer(t *testing.T) {
	shared := &modelio.GateSpec{Op: "or", Children: []*modelio.GateSpec{{Event: "a"}, {Event: "b"}}}
	ds := CheckFaultTree(&modelio.FaultTreeSpec{
		Events: []modelio.FTEvent{{Name: "a"}, {Name: "b"}},
		Top:    &modelio.GateSpec{Op: "and", Children: []*modelio.GateSpec{shared, shared}},
	})
	wantCode(t, ds, CodeFTSharedSubtree, SevWarning)
}

func TestCheckFaultTreeUnusedAndDuplicateEvents(t *testing.T) {
	ds := CheckFaultTree(&modelio.FaultTreeSpec{
		Events: []modelio.FTEvent{{Name: "a"}, {Name: "a"}, {Name: "spare"}},
		Top:    &modelio.GateSpec{Event: "a"},
	})
	wantCode(t, ds, CodeFTDuplicateEvent, SevError)
	d := wantCode(t, ds, CodeFTUnusedEvent, SevWarning)
	if !strings.Contains(d.Msg, "spare") {
		t.Errorf("unused warning should name the event: %s", d.Msg)
	}
}

func TestCheckFaultTreeBadGates(t *testing.T) {
	ds := CheckFaultTree(&modelio.FaultTreeSpec{
		Events: []modelio.FTEvent{{Name: "a"}},
		Top: &modelio.GateSpec{Op: "and", Children: []*modelio.GateSpec{
			{Op: "or"}, // no children
			{Op: "xor", Children: []*modelio.GateSpec{{Event: "a"}}},               // unknown op
			{Op: "not", Children: []*modelio.GateSpec{{Event: "a"}, {Event: "a"}}}, // arity
		}},
	})
	if got := codes(ds)[CodeFTBadGate]; got != 3 {
		t.Errorf("want 3 FT006, got %d: %v", got, ds)
	}
}

func TestCheckFaultTreeCycle(t *testing.T) {
	g := &modelio.GateSpec{Op: "and"}
	g.Children = []*modelio.GateSpec{g}
	ds := CheckFaultTree(&modelio.FaultTreeSpec{Top: g})
	wantCode(t, ds, CodeFTCycle, SevError)
}

func TestCheckFaultTreeMissingTop(t *testing.T) {
	ds := CheckFaultTree(&modelio.FaultTreeSpec{Events: []modelio.FTEvent{{Name: "a"}}})
	wantCode(t, ds, CodeFTMissingTop, SevError)
}

func TestCheckFaultTreeLifetimeDist(t *testing.T) {
	ds := CheckFaultTree(&modelio.FaultTreeSpec{
		Events: []modelio.FTEvent{{Name: "a", Lifetime: &modelio.DistSpec{Kind: "exponential", Rate: -1}}},
		Top:    &modelio.GateSpec{Event: "a"},
	})
	d := wantCode(t, ds, CodeDistBadParam, SevError)
	if d.Path != "faulttree.events[0].lifetime" {
		t.Errorf("bad path %q", d.Path)
	}
}

// TestCheckFaultTreeNoLifetime: topAt and mttf need a lifetime on every
// event in the tree; an unreferenced event, or a static measure, does not.
func TestCheckFaultTreeNoLifetime(t *testing.T) {
	ft := &modelio.FaultTreeSpec{
		Events: []modelio.FTEvent{
			{Name: "a", Prob: 0.1, Lifetime: &modelio.DistSpec{Kind: "exponential", Rate: 1}},
			{Name: "b", Prob: 0.1},
			{Name: "idle", Prob: 0.1},
		},
		Top:      &modelio.GateSpec{Op: "or", Children: []*modelio.GateSpec{{Event: "a"}, {Event: "b"}}},
		Measures: []string{"top", "mttf"},
	}
	ds := CheckFaultTree(ft)
	if d := wantCode(t, ds, CodeFTNoLifetime, SevError); d.Path != "faulttree.events[1].lifetime" {
		t.Errorf("bad path %q", d.Path)
	}
	if n := codes(ds)[CodeFTNoLifetime]; n != 1 {
		t.Errorf("%d FT010 diagnostics, want 1 (the unreferenced event needs no lifetime): %v", n, ds)
	}
	ft.Measures = []string{"top"}
	if n := codes(CheckFaultTree(ft))[CodeFTNoLifetime]; n != 0 {
		t.Errorf("static measures reported FT010")
	}
}

// TestCheckFaultTreeNonCoherent: a NOT gate with a rare-event measure is
// an FT011 error at the gate; with only bddBudget set, whose MOCUS
// fallback also needs a coherent tree, a warning; with neither, or with
// no NOT gate, nothing.
func TestCheckFaultTreeNonCoherent(t *testing.T) {
	ft := &modelio.FaultTreeSpec{
		Events: []modelio.FTEvent{{Name: "a", Prob: 0.1}, {Name: "b", Prob: 0.2}},
		Top: &modelio.GateSpec{Op: "and", Children: []*modelio.GateSpec{
			{Event: "a"}, {Op: "not", Children: []*modelio.GateSpec{{Event: "b"}}}}},
		Measures: []string{"top", "rare-event"},
	}
	if d := wantCode(t, CheckFaultTree(ft), CodeFTNonCoherent, SevError); d.Path != "faulttree.top.children[1]" {
		t.Errorf("bad path %q", d.Path)
	}
	ft.Measures, ft.BDDBudget = []string{"top"}, 10
	wantCode(t, CheckFaultTree(ft), CodeFTNonCoherent, SevWarning)
	ft.BDDBudget = 0
	if n := codes(CheckFaultTree(ft))[CodeFTNonCoherent]; n != 0 {
		t.Errorf("top alone reported FT011")
	}
	ft.Top.Children[1] = &modelio.GateSpec{Event: "b"}
	ft.Measures, ft.BDDBudget = []string{"rare-event"}, 10
	if n := codes(CheckFaultTree(ft))[CodeFTNonCoherent]; n != 0 {
		t.Errorf("a coherent tree reported FT011")
	}
}

func TestCheckFaultTreeClean(t *testing.T) {
	ds := CheckFaultTree(&modelio.FaultTreeSpec{
		Events: []modelio.FTEvent{{Name: "a", Prob: 0.1}, {Name: "b", Prob: 0.2}},
		Top:    &modelio.GateSpec{Op: "and", Children: []*modelio.GateSpec{{Event: "a"}, {Event: "b"}}},
	})
	if len(ds) != 0 {
		t.Errorf("clean fault tree produced diagnostics: %v", ds)
	}
}

func TestCheckRBDUnknownAndUnused(t *testing.T) {
	ds := CheckRBD(&modelio.RBDSpec{
		Components: []modelio.RBDComponent{
			{Name: "web", Lifetime: &modelio.DistSpec{Kind: "exponential", Rate: 0.001}},
			{Name: "idle", Lifetime: &modelio.DistSpec{Kind: "exponential", Rate: 0.001}},
		},
		Structure: &modelio.BlockSpec{Op: "series", Children: []*modelio.BlockSpec{{Comp: "web"}, {Comp: "ghost"}}},
	})
	wantCode(t, ds, CodeRBDUnknownComp, SevError)
	wantCode(t, ds, CodeRBDUnusedComp, SevWarning)
}

func TestCheckRBDArity(t *testing.T) {
	ds := CheckRBD(&modelio.RBDSpec{
		Components: []modelio.RBDComponent{{Name: "a", Lifetime: &modelio.DistSpec{Kind: "exponential", Rate: 1}}},
		Structure:  &modelio.BlockSpec{Op: "kofn", K: 5, Children: []*modelio.BlockSpec{{Comp: "a"}}},
	})
	wantCode(t, ds, CodeRBDArity, SevError)
}

func TestCheckRBDSharedComponent(t *testing.T) {
	ds := CheckRBD(&modelio.RBDSpec{
		Components: []modelio.RBDComponent{{Name: "a", Lifetime: &modelio.DistSpec{Kind: "exponential", Rate: 1}}},
		Structure:  &modelio.BlockSpec{Op: "parallel", Children: []*modelio.BlockSpec{{Comp: "a"}, {Comp: "a"}}},
	})
	wantCode(t, ds, CodeRBDSharedBlock, SevWarning)
}

func TestCheckRBDCycle(t *testing.T) {
	b := &modelio.BlockSpec{Op: "series"}
	b.Children = []*modelio.BlockSpec{b}
	ds := CheckRBD(&modelio.RBDSpec{Structure: b})
	wantCode(t, ds, CodeRBDCycle, SevError)
}

func TestCheckRBDBadBlockAndDuplicate(t *testing.T) {
	ds := CheckRBD(&modelio.RBDSpec{
		Components: []modelio.RBDComponent{
			{Name: "a", Lifetime: &modelio.DistSpec{Kind: "exponential", Rate: 1}},
			{Name: "a", Lifetime: &modelio.DistSpec{Kind: "exponential", Rate: 1}},
		},
		Structure: &modelio.BlockSpec{Op: "mesh", Children: []*modelio.BlockSpec{{Comp: "a"}}},
	})
	wantCode(t, ds, CodeRBDDuplicateComp, SevError)
	wantCode(t, ds, CodeRBDBadBlock, SevError)
}

func TestCheckRBDMissingStructureAndLifetime(t *testing.T) {
	ds := CheckRBD(&modelio.RBDSpec{Components: []modelio.RBDComponent{{Name: "a"}}})
	wantCode(t, ds, CodeRBDMissingStructure, SevError)
	wantCode(t, ds, CodeDistBadParam, SevError) // missing lifetime
}

// TestCheckRBDNoRepair: availability needs a repair distribution on every
// component in the structure; an unplaced component, or mttf, does not.
func TestCheckRBDNoRepair(t *testing.T) {
	m := &modelio.RBDSpec{
		Components: []modelio.RBDComponent{
			{Name: "a", Lifetime: &modelio.DistSpec{Kind: "exponential", Rate: 1},
				Repair: &modelio.DistSpec{Kind: "exponential", Rate: 1}},
			{Name: "b", Lifetime: &modelio.DistSpec{Kind: "exponential", Rate: 1}},
			{Name: "idle", Lifetime: &modelio.DistSpec{Kind: "exponential", Rate: 1}},
		},
		Structure: &modelio.BlockSpec{Op: "series", Children: []*modelio.BlockSpec{{Comp: "a"}, {Comp: "b"}}},
		Measures:  []string{"mttf", "availability"},
	}
	ds := CheckRBD(m)
	if d := wantCode(t, ds, CodeRBDNoRepair, SevError); d.Path != "rbd.components[1].repair" {
		t.Errorf("bad path %q", d.Path)
	}
	if n := codes(ds)[CodeRBDNoRepair]; n != 1 {
		t.Errorf("%d RBD009 diagnostics, want 1 (the unplaced component needs no repair): %v", n, ds)
	}
	m.Measures = []string{"mttf"}
	if n := codes(CheckRBD(m))[CodeRBDNoRepair]; n != 0 {
		t.Errorf("mttf reported RBD009")
	}
}

func TestCheckRBDClean(t *testing.T) {
	ds := CheckRBD(&modelio.RBDSpec{
		Components: []modelio.RBDComponent{
			{Name: "web", Lifetime: &modelio.DistSpec{Kind: "exponential", Rate: 0.001},
				Repair: &modelio.DistSpec{Kind: "exponential", Rate: 0.5}},
			{Name: "db", Lifetime: &modelio.DistSpec{Kind: "weibull", Shape: 1.5, Scale: 8000}},
		},
		Structure: &modelio.BlockSpec{Op: "series", Children: []*modelio.BlockSpec{{Comp: "web"}, {Comp: "db"}}},
	})
	if len(ds) != 0 {
		t.Errorf("clean RBD produced diagnostics: %v", ds)
	}
}
