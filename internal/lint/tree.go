package lint

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/modelio"
)

// CheckFaultTree runs the structural checks on a fault tree: dangling
// event references, arity violations, out-of-range probabilities, cycles,
// and the shared-subtree situations where simple bottom-up evaluation is
// only a bound (the Boeing flight-control case from the tutorial).
func CheckFaultTree(ft *modelio.FaultTreeSpec) []Diagnostic {
	var ds []Diagnostic
	declared := map[string]bool{}
	for i, e := range ft.Events {
		path := fmt.Sprintf("faulttree.events[%d]", i)
		if e.Name == "" {
			ds = errf(ds, CodeFTBadGate, path, "event has no name")
			continue
		}
		if declared[e.Name] {
			ds = errf(ds, CodeFTDuplicateEvent, path, "event %q declared more than once", e.Name)
		}
		declared[e.Name] = true
		if e.Prob < 0 || e.Prob > 1 || math.IsNaN(e.Prob) {
			ds = errf(ds, CodeFTProbRange, path+".prob",
				"event %q probability %g is outside [0,1]", e.Name, e.Prob)
		}
		if e.Lifetime != nil {
			ds = append(ds, CheckDist(path+".lifetime", e.Lifetime)...)
		}
	}
	if ft.Top == nil {
		ds = errf(ds, CodeFTMissingTop, "faulttree.top", "fault tree has no top gate")
		return ds
	}

	used := map[string]int{}
	visiting := map[*modelio.GateSpec]bool{}
	visited := map[*modelio.GateSpec]bool{}
	notPath := "" // the first NOT gate, which makes the tree non-coherent
	var walk func(g *modelio.GateSpec, path string)
	walk = func(g *modelio.GateSpec, path string) {
		if g == nil {
			ds = errf(ds, CodeFTBadGate, path, "gate is null")
			return
		}
		if visiting[g] {
			ds = errf(ds, CodeFTCycle, path, "gate structure is cyclic; fault trees must be acyclic")
			return
		}
		if visited[g] && g.Event == "" {
			ds = warnf(ds, CodeFTSharedSubtree, path,
				"gate is shared between branches; bottom-up evaluation treats the copies as independent and only bounds the true probability")
			return
		}
		visited[g] = true
		if g.Event != "" {
			used[g.Event]++
			if !declared[g.Event] {
				ds = errf(ds, CodeFTUnknownEvent, path, "reference to undeclared event %q", g.Event)
			}
			if g.Op != "" || len(g.Children) > 0 {
				ds = errf(ds, CodeFTBadGate, path, "leaf %q must not also carry a gate op or children", g.Event)
			}
			return
		}
		switch g.Op {
		case "and", "or":
			if len(g.Children) == 0 {
				ds = errf(ds, CodeFTBadGate, path, "%s gate has no children", g.Op)
			}
		case "atleast":
			if g.K < 1 || g.K > len(g.Children) {
				ds = errf(ds, CodeFTArity, path,
					"atleast gate needs 1 ≤ k ≤ %d children, got k=%d", len(g.Children), g.K)
			}
		case "not":
			if len(g.Children) != 1 {
				ds = errf(ds, CodeFTBadGate, path, "not gate takes exactly one child, got %d", len(g.Children))
			}
			if notPath == "" {
				notPath = path
			}
		default:
			ds = errf(ds, CodeFTBadGate, path, "unknown gate op %q", g.Op)
		}
		visiting[g] = true
		for i, c := range g.Children {
			walk(c, fmt.Sprintf("%s.children[%d]", path, i))
		}
		visiting[g] = false
	}
	walk(ft.Top, "faulttree.top")

	for _, name := range sortedKeys(used) {
		if n := used[name]; n > 1 {
			ds = warnf(ds, CodeFTSharedSubtree, "faulttree.top",
				"basic event %q appears %d times in the tree; min-cut based bounds are safer than naive bottom-up evaluation here", name, n)
		}
	}
	switch {
	case notPath == "":
	case slices.Contains(ft.Measures, "rare-event"):
		ds = errf(ds, CodeFTNonCoherent, notPath,
			"not gate makes the tree non-coherent, and the rare-event measure needs a coherent tree")
	case ft.BDDBudget > 0:
		ds = warnf(ds, CodeFTNonCoherent, notPath,
			"not gate makes the tree non-coherent, so past bddBudget the MOCUS fallback fails: it needs a coherent tree")
	}
	timed := slices.Contains(ft.Measures, "topAt") || slices.Contains(ft.Measures, "mttf")
	for i, e := range ft.Events {
		if e.Name != "" && used[e.Name] == 0 {
			ds = warnf(ds, CodeFTUnusedEvent, fmt.Sprintf("faulttree.events[%d]", i),
				"event %q is declared but never referenced by the gate tree", e.Name)
		}
		if timed && used[e.Name] > 0 && e.Lifetime == nil {
			ds = errf(ds, CodeFTNoLifetime, fmt.Sprintf("faulttree.events[%d].lifetime", i),
				"event %q has no lifetime distribution, which the topAt and mttf measures need", e.Name)
		}
	}
	return ds
}

// CheckRBD runs the structural checks on a reliability block diagram.
func CheckRBD(m *modelio.RBDSpec) []Diagnostic {
	var ds []Diagnostic
	declared := map[string]bool{}
	for i, c := range m.Components {
		path := fmt.Sprintf("rbd.components[%d]", i)
		if c.Name == "" {
			ds = errf(ds, CodeRBDBadBlock, path, "component has no name")
			continue
		}
		if declared[c.Name] {
			ds = errf(ds, CodeRBDDuplicateComp, path, "component %q declared more than once", c.Name)
		}
		declared[c.Name] = true
		if c.Lifetime == nil {
			ds = errf(ds, CodeDistBadParam, path+".lifetime", "component %q has no lifetime distribution", c.Name)
		} else {
			ds = append(ds, CheckDist(path+".lifetime", c.Lifetime)...)
		}
		if c.Repair != nil {
			ds = append(ds, CheckDist(path+".repair", c.Repair)...)
		}
	}
	if m.Structure == nil {
		ds = errf(ds, CodeRBDMissingStructure, "rbd.structure", "block diagram has no structure")
		return ds
	}

	used := map[string]int{}
	visiting := map[*modelio.BlockSpec]bool{}
	visited := map[*modelio.BlockSpec]bool{}
	var walk func(b *modelio.BlockSpec, path string)
	walk = func(b *modelio.BlockSpec, path string) {
		if b == nil {
			ds = errf(ds, CodeRBDBadBlock, path, "block is null")
			return
		}
		if visiting[b] {
			ds = errf(ds, CodeRBDCycle, path, "block structure is cyclic; RBDs must be trees")
			return
		}
		if visited[b] && b.Comp == "" {
			ds = warnf(ds, CodeRBDSharedBlock, path,
				"block is shared between branches; the solver treats the copies as independent")
			return
		}
		visited[b] = true
		if b.Comp != "" {
			used[b.Comp]++
			if !declared[b.Comp] {
				ds = errf(ds, CodeRBDUnknownComp, path, "reference to undeclared component %q", b.Comp)
			}
			if b.Op != "" || len(b.Children) > 0 {
				ds = errf(ds, CodeRBDBadBlock, path, "leaf %q must not also carry an op or children", b.Comp)
			}
			return
		}
		switch b.Op {
		case "series", "parallel":
			if len(b.Children) == 0 {
				ds = errf(ds, CodeRBDBadBlock, path, "%s block has no children", b.Op)
			}
		case "kofn":
			if b.K < 1 || b.K > len(b.Children) {
				ds = errf(ds, CodeRBDArity, path,
					"kofn block needs 1 ≤ k ≤ %d children, got k=%d", len(b.Children), b.K)
			}
		default:
			ds = errf(ds, CodeRBDBadBlock, path, "unknown block op %q", b.Op)
		}
		visiting[b] = true
		for i, c := range b.Children {
			walk(c, fmt.Sprintf("%s.children[%d]", path, i))
		}
		visiting[b] = false
	}
	walk(m.Structure, "rbd.structure")

	for _, name := range sortedKeys(used) {
		if n := used[name]; n > 1 {
			ds = warnf(ds, CodeRBDSharedBlock, "rbd.structure",
				"component %q appears %d times in the structure; the copies are treated as statistically independent", name, n)
		}
	}
	avail := slices.Contains(m.Measures, "availability")
	for i, c := range m.Components {
		if c.Name != "" && used[c.Name] == 0 {
			ds = warnf(ds, CodeRBDUnusedComp, fmt.Sprintf("rbd.components[%d]", i),
				"component %q is declared but never placed in the structure", c.Name)
		}
		if avail && used[c.Name] > 0 && c.Repair == nil {
			ds = errf(ds, CodeRBDNoRepair, fmt.Sprintf("rbd.components[%d].repair", i),
				"component %q has no repair distribution, which the availability measure needs", c.Name)
		}
	}
	return ds
}
