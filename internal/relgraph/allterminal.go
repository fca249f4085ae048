package relgraph

import (
	"fmt"
	"sort"
)

// All-terminal reliability: the probability that the working edges keep
// EVERY node connected (the network-management variant of the s–t
// measure). Solved by factoring with parallel-edge reduction; series
// reduction does not preserve all-terminal semantics, so it is not
// applied. Intended for the tens-of-edges graphs where the measure is
// used.

// maxAllTerminalEdges caps the factoring recursion (2^n worst case).
const maxAllTerminalEdges = 40

// AllTerminalReliability returns P(all nodes connected).
func (g *Graph) AllTerminalReliability() (float64, error) { //numvet:allow unused-export delete: all-terminal reliability; no binary reaches it, and it goes with its six tests
	if len(g.nodes) == 0 {
		return 0, fmt.Errorf("relgraph: empty graph")
	}
	if len(g.nodes) == 1 {
		return 1, nil
	}
	if len(g.edges) > maxAllTerminalEdges {
		return 0, fmt.Errorf("relgraph: %d edges exceed the all-terminal cap of %d",
			len(g.edges), maxAllTerminalEdges)
	}
	// Renumber.
	names := make([]string, 0, len(g.nodes))
	for n := range g.nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	id := make(map[string]int, len(names))
	for i, n := range names {
		id[n] = i
	}
	edges := make([]workEdge, len(g.edges))
	for i, e := range g.edges {
		edges[i] = workEdge{u: id[e.From], v: id[e.To], p: e.Rel}
	}
	return allTerminalFactor(len(names), edges), nil
}

// allTerminalFactor implements pivotal decomposition for all-terminal
// connectivity over `n` live node labels.
func allTerminalFactor(n int, edges []workEdge) float64 {
	edges = mergeParallel(edges)
	if countComponents(n, edges, false) > 1 {
		return 0 // some node is unreachable even with all edges up
	}
	if n == 1 {
		return 1
	}
	if len(edges) == n-1 {
		// Spanning tree: every edge must work.
		p := 1.0
		for _, e := range edges {
			p *= e.p
		}
		return p
	}
	// Pivot on the first edge.
	e := edges[0]
	rest := edges[1:]
	// Contract (edge up): merge v into u, relabel compactly.
	contracted := make([]workEdge, 0, len(rest))
	for _, o := range rest {
		ne := o
		if ne.u == e.v {
			ne.u = e.u
		}
		if ne.v == e.v {
			ne.v = e.u
		}
		if ne.u != ne.v {
			contracted = append(contracted, ne)
		}
	}
	up := allTerminalFactor(n-1, relabel(contracted, e.v, n))
	down := allTerminalFactor(n, rest)
	return e.p*up + (1-e.p)*down
}

// relabel compacts node labels after `gone` was merged away: every label
// above gone shifts down by one so labels stay 0..n-2.
func relabel(edges []workEdge, gone, n int) []workEdge {
	out := make([]workEdge, len(edges))
	shift := func(x int) int {
		if x > gone {
			return x - 1
		}
		return x
	}
	for i, e := range edges {
		out[i] = workEdge{u: shift(e.u), v: shift(e.v), p: e.p}
	}
	return out
}

// mergeParallel combines duplicate undirected edges.
func mergeParallel(edges []workEdge) []workEdge {
	type key struct{ a, b int }
	seen := make(map[key]int, len(edges))
	var out []workEdge
	for _, e := range edges {
		a, b := e.u, e.v
		if a > b {
			a, b = b, a
		}
		if idx, ok := seen[key{a, b}]; ok {
			out[idx].p = 1 - (1-out[idx].p)*(1-e.p)
			continue
		}
		seen[key{a, b}] = len(out)
		out = append(out, e)
	}
	return out
}

// countComponents returns the number of connected components over labels
// 0..n-1 given the edges (probabilities ignored).
func countComponents(n int, edges []workEdge, _ bool) int {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	comps := n
	for _, e := range edges {
		ru, rv := find(e.u), find(e.v)
		if ru != rv {
			parent[ru] = rv
			comps--
		}
	}
	return comps
}
