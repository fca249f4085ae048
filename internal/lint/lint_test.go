package lint

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/modelio"
)

// TestModelReportsReducibilityOnce: a chain with two closed classes and
// no steady-state measure is one defect, reported once as a CT006
// warning. The structure pass used to repeat it as STR001.
func TestModelReportsReducibilityOnce(t *testing.T) {
	ds := ctmcDiags(&modelio.CTMCSpec{
		Transitions: []modelio.CTMCTransition{
			{From: "start", To: "a", Rate: 1}, {From: "start", To: "b", Rate: 1},
			{From: "a", To: "a2", Rate: 1}, {From: "a2", To: "a", Rate: 1},
			{From: "b", To: "b2", Rate: 1}, {From: "b2", To: "b", Rate: 1},
		},
		Initial: "start",
	})
	var reducible []Diagnostic
	for _, d := range ds {
		if d.Code == CodeCTMCReducible || d.Code == "STR001" {
			reducible = append(reducible, d)
		}
	}
	if len(reducible) != 1 || reducible[0].Code != CodeCTMCReducible || reducible[0].Severity != SevWarning {
		t.Fatalf("want exactly one CT006 warning, got %v (all findings: %v)", reducible, ds)
	}
}

// TestModelCleanInputIsEmpty: a clean model of each formalism yields no
// diagnostics at all, STR advice included.
func TestModelCleanInputIsEmpty(t *testing.T) {
	exp := &modelio.DistSpec{Kind: "exponential", Rate: 0.1}
	for name, ds := range map[string][]Diagnostic{
		"ctmc": ctmcDiags(&modelio.CTMCSpec{
			Transitions: []modelio.CTMCTransition{{From: "up", To: "down", Rate: 0.01}, {From: "down", To: "up", Rate: 1}},
			Initial:     "up", UpStates: []string{"up"}, Measures: []string{"steadystate"},
		}),
		"faulttree": CheckFaultTree(&modelio.FaultTreeSpec{
			Events: []modelio.FTEvent{{Name: "a", Prob: 0.1}, {Name: "b", Prob: 0.2}},
			Top:    &modelio.GateSpec{Op: "and", Children: []*modelio.GateSpec{{Event: "a"}, {Event: "b"}}},
		}),
		"rbd": CheckRBD(&modelio.RBDSpec{
			Components: []modelio.RBDComponent{{Name: "a", Lifetime: exp}, {Name: "b", Lifetime: exp}},
			Structure:  &modelio.BlockSpec{Op: "parallel", Children: []*modelio.BlockSpec{{Comp: "a"}, {Comp: "b"}}},
		}),
		"relgraph": CheckRelGraph(&modelio.RelGraphSpec{
			Edges:  []modelio.RGEdge{{Name: "e", From: "s", To: "t", Rel: 0.9}},
			Source: "s", Target: "t",
		}),
		"spn": CheckSPN(&modelio.SPNSpec{
			Places:      []modelio.SPNPlace{{Name: "up", Tokens: 1}, {Name: "down"}},
			Transitions: []modelio.SPNTransition{{Name: "fail", Kind: "timed", Rate: 0.1}, {Name: "repair", Kind: "timed", Rate: 1}},
			Arcs: []modelio.SPNArc{
				{Kind: "input", Place: "up", Transition: "fail"}, {Kind: "output", Place: "down", Transition: "fail"},
				{Kind: "input", Place: "down", Transition: "repair"}, {Kind: "output", Place: "up", Transition: "repair"},
			},
		}),
	} {
		if len(ds) != 0 {
			t.Errorf("clean %s produced diagnostics: %v", name, ds)
		}
	}
}

// TestSortOrdersByCodeThenPath: Sort orders by code, then path, whatever
// the severity, and keeps ties in the order they came.
func TestSortOrdersByCodeThenPath(t *testing.T) {
	ds := []Diagnostic{
		{Code: "B", Severity: SevWarning, Path: "b", Msg: "1"},
		{Code: "A", Severity: SevError, Path: "z"},
		{Code: "B", Severity: SevWarning, Path: "a"},
		{Code: "B", Severity: SevWarning, Path: "b", Msg: "0"},
		{Code: "A", Severity: SevInfo, Path: "y"},
	}
	Sort(ds)
	var got []string
	for _, d := range ds {
		got = append(got, d.Code+" "+d.Path+" "+d.Msg)
	}
	want := []string{"A y ", "A z ", "B a ", "B b 1", "B b 0"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Sort order %q, want %q", got, want)
	}
}

// TestTiedDiagnosticsComeOutInOneOrder lints, 20 times each, the four
// shapes whose checks report one diagnostic per map entry under a shared
// code and path: repeated fault-tree events (FT004), repeated RBD
// components (RBD004), off-path graph nodes (RG005) and an SPN
// transition dead in several places (PN004). Go randomizes map order on
// every loop, so 20 runs would show a map-order emission.
func TestTiedDiagnosticsComeOutInOneOrder(t *testing.T) {
	names := []string{"e", "d", "a", "c", "b"}
	var events []modelio.FTEvent
	var comps []modelio.RBDComponent
	var gates []*modelio.GateSpec
	var blocks []*modelio.BlockSpec
	edges := []modelio.RGEdge{{Name: "st", From: "s", To: "t", Rel: 0.9}}
	spn := &modelio.SPNSpec{Transitions: []modelio.SPNTransition{{Name: "t", Kind: "timed", Rate: 1}}}
	for _, n := range names {
		events = append(events, modelio.FTEvent{Name: n, Prob: 0.1})
		comps = append(comps, modelio.RBDComponent{Name: n, Lifetime: &modelio.DistSpec{Kind: "exponential", Rate: 0.1}})
		gates = append(gates, &modelio.GateSpec{Event: n}, &modelio.GateSpec{Event: n})
		blocks = append(blocks, &modelio.BlockSpec{Comp: n}, &modelio.BlockSpec{Comp: n})
		edges = append(edges, modelio.RGEdge{Name: "s" + n, From: "s", To: n, Rel: 0.9})
		spn.Places = append(spn.Places, modelio.SPNPlace{Name: n, Tokens: 1})
		spn.Arcs = append(spn.Arcs,
			modelio.SPNArc{Kind: "input", Place: n, Transition: "t"},
			modelio.SPNArc{Kind: "inhibitor", Place: n, Transition: "t"})
	}
	shapes := []struct {
		code string
		lint func() []Diagnostic
	}{
		{CodeFTSharedSubtree, func() []Diagnostic {
			return CheckFaultTree(&modelio.FaultTreeSpec{Events: events, Top: &modelio.GateSpec{Op: "or", Children: gates}})
		}},
		{CodeRBDSharedBlock, func() []Diagnostic {
			return CheckRBD(&modelio.RBDSpec{Components: comps, Structure: &modelio.BlockSpec{Op: "series", Children: blocks}})
		}},
		{CodeRGOffPath, func() []Diagnostic {
			return CheckRelGraph(&modelio.RelGraphSpec{Edges: edges, Source: "s", Target: "t"})
		}},
		{CodePNDeadTransition, func() []Diagnostic { return CheckSPN(spn) }},
	}
	for _, sh := range shapes {
		first := sh.lint()
		if got := codes(first)[sh.code]; got != len(names) {
			t.Fatalf("want %d %s diagnostics, got %d: %v", len(names), sh.code, got, first)
		}
		var order []string
		for _, d := range first {
			if d.Code == sh.code {
				order = append(order, d.Msg)
			}
		}
		if !sort.StringsAreSorted(order) {
			t.Errorf("%s not emitted in name order: %q", sh.code, order)
		}
		for run := 1; run < 20; run++ {
			if again := sh.lint(); !reflect.DeepEqual(again, first) {
				t.Fatalf("%s: run %d differs from run 0:\n%v\n%v", sh.code, run, first, again)
			}
		}
	}
}

func TestHasErrors(t *testing.T) {
	if HasErrors([]Diagnostic{{Severity: SevWarning}}) {
		t.Error("warnings alone must not count as errors")
	}
	if !HasErrors([]Diagnostic{{Severity: SevWarning}, {Severity: SevError}}) {
		t.Error("error diagnostic not detected")
	}
}

func TestDiagnosticAndErrorStrings(t *testing.T) {
	d := Diagnostic{Code: "CT001", Severity: SevError, Path: "ctmc.transitions[0].rate", Msg: "rate -1 is not a positive finite number"}
	if got := d.String(); got != "error CT001 ctmc.transitions[0].rate: rate -1 is not a positive finite number" {
		t.Errorf("bad Diagnostic.String: %q", got)
	}
	e := &Error{Diags: []Diagnostic{d}}
	if !strings.Contains(e.Error(), "1 problem") || !strings.Contains(e.Error(), "CT001") {
		t.Errorf("bad Error.Error: %q", e.Error())
	}
}

func TestSeverityString(t *testing.T) {
	for sev, want := range map[Severity]string{SevError: "error", SevWarning: "warning", SevInfo: "info"} {
		if sev.String() != want {
			t.Errorf("Severity(%d).String() = %q, want %q", sev, sev.String(), want)
		}
	}
}
