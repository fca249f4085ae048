package lint

import (
	"fmt"
	"math"

	"repro/internal/modelio"
)

// CheckRelGraph runs the structural checks on a reliability graph:
// terminal declarations, edge reliability ranges, s–t connectivity, and
// edges that can never matter because they lie on no source-to-target path.
func CheckRelGraph(g *modelio.RelGraphSpec) []Diagnostic {
	var ds []Diagnostic
	nodes := map[string]bool{}
	fwd := map[string][]string{}
	rev := map[string][]string{}
	seenName := map[string]bool{}
	for i, e := range g.Edges {
		path := fmt.Sprintf("relgraph.edges[%d]", i)
		if e.From == "" || e.To == "" {
			ds = errf(ds, CodeRGBadTerminal, path, "edge must name both endpoints")
			continue
		}
		if e.Name != "" && seenName[e.Name] {
			ds = warnf(ds, CodeRGDuplicateEdge, path, "edge name %q is reused", e.Name)
		}
		seenName[e.Name] = true
		if e.Rel < 0 || e.Rel > 1 || math.IsNaN(e.Rel) {
			ds = errf(ds, CodeRGRelRange, path+".rel",
				"edge %q reliability %g is outside [0,1]", e.Name, e.Rel)
		}
		if e.From == e.To {
			ds = warnf(ds, CodeRGSelfLoop, path, "self-loop edge %q never affects s–t reliability", e.Name)
			continue
		}
		nodes[e.From], nodes[e.To] = true, true
		fwd[e.From] = append(fwd[e.From], e.To)
		rev[e.To] = append(rev[e.To], e.From)
	}
	if g.Source == "" {
		ds = errf(ds, CodeRGBadTerminal, "relgraph.source", "no source node declared")
	} else if !nodes[g.Source] {
		ds = errf(ds, CodeRGBadTerminal, "relgraph.source", "source %q is not an endpoint of any edge", g.Source)
	}
	if g.Target == "" {
		ds = errf(ds, CodeRGBadTerminal, "relgraph.target", "no target node declared")
	} else if !nodes[g.Target] {
		ds = errf(ds, CodeRGBadTerminal, "relgraph.target", "target %q is not an endpoint of any edge", g.Target)
	}
	if !nodes[g.Source] || !nodes[g.Target] {
		return ds
	}

	fromS := reachable(g.Source, fwd)
	toT := reachable(g.Target, rev)
	if !fromS[g.Target] {
		ds = errf(ds, CodeRGUnreachable, "relgraph",
			"target %q is unreachable from source %q; reliability is identically 0", g.Target, g.Source)
	}
	for _, n := range sortedKeys(nodes) {
		if n == g.Source || n == g.Target {
			continue
		}
		if !fromS[n] || !toT[n] {
			ds = warnf(ds, CodeRGOffPath, "relgraph",
				"node %q lies on no path from %q to %q and never affects the result", n, g.Source, g.Target)
		}
	}
	return ds
}

// reachable returns the set of nodes reachable from start in adj.
func reachable(start string, adj map[string][]string) map[string]bool {
	seen := map[string]bool{start: true}
	stack := []string{start}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return seen
}
