// Package relgraph implements reliability graphs (s–t network reliability):
// nodes are perfect, edges fail independently with known probability, and
// the system is up while at least one source→target path of working edges
// exists. The solver is the classic factoring (pivotal decomposition)
// algorithm accelerated by series and parallel reductions; minimal path and
// cut sets are extracted via a BDD over the edge variables, which also
// serves as an independent exact oracle.
//
// Reliability graphs are the third of the tutorial's non-state-space model
// types.
package relgraph

import (
	"errors"
	"fmt"
	"sort"
)

// Edge is a failing connection between two perfect nodes.
type Edge struct {
	// Name identifies the edge; unique per graph.
	Name string
	// From and To are node names. Edges are undirected.
	From, To string
	// Rel is the probability the edge is up.
	Rel float64
}

// Graph is an undirected reliability graph.
type Graph struct {
	edges []Edge
	nodes map[string]bool
}

// Errors returned by graph analysis.
var (
	ErrNoSuchNode = errors.New("relgraph: node not in graph")
	ErrBadEdge    = errors.New("relgraph: invalid edge")
)

// New returns an empty graph.
func New() *Graph {
	return &Graph{nodes: make(map[string]bool)}
}

// AddEdge appends an undirected edge. Probabilities must lie in [0,1] and
// names must be unique.
func (g *Graph) AddEdge(e Edge) error {
	if e.Name == "" || e.From == "" || e.To == "" || e.From == e.To {
		return fmt.Errorf("%w: %+v", ErrBadEdge, e)
	}
	if e.Rel < 0 || e.Rel > 1 {
		return fmt.Errorf("%w: reliability %g outside [0,1]", ErrBadEdge, e.Rel)
	}
	for _, prev := range g.edges {
		if prev.Name == e.Name {
			return fmt.Errorf("%w: duplicate edge name %q", ErrBadEdge, e.Name)
		}
	}
	g.edges = append(g.edges, e)
	g.nodes[e.From] = true
	g.nodes[e.To] = true
	return nil
}

// Edges returns a copy of the edge list.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// --- factoring solver ------------------------------------------------------

// workGraph is the mutable graph used during factoring. Nodes are ints after
// renumbering; parallel edges are allowed (they arise from contractions).
type workGraph struct {
	n     int
	edges []workEdge
	s, t  int
}

type workEdge struct {
	u, v int
	p    float64
}

// Reliability computes the probability that source and target are connected
// by working edges, using factoring with series-parallel reductions.
func (g *Graph) Reliability(source, target string) (float64, error) {
	if !g.nodes[source] {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchNode, source)
	}
	if !g.nodes[target] {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchNode, target)
	}
	if source == target {
		return 1, nil
	}
	// Renumber nodes.
	id := make(map[string]int, len(g.nodes))
	names := make([]string, 0, len(g.nodes))
	for n := range g.nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	for i, n := range names {
		id[n] = i
	}
	w := &workGraph{n: len(names), s: id[source], t: id[target]}
	w.edges = make([]workEdge, len(g.edges))
	for i, e := range g.edges {
		w.edges[i] = workEdge{u: id[e.From], v: id[e.To], p: e.Rel}
	}
	return factor(w), nil
}

// factor implements pivotal decomposition with reductions.
func factor(w *workGraph) float64 {
	w = reduce(w)
	if w.s == w.t {
		return 1
	}
	if !connected(w) {
		return 0
	}
	if len(w.edges) == 1 {
		e := w.edges[0]
		if (e.u == w.s && e.v == w.t) || (e.v == w.s && e.u == w.t) {
			return e.p
		}
		return 0
	}
	// Pivot on an edge incident to the source (a common effective heuristic).
	pivot := 0
	for i, e := range w.edges {
		if e.u == w.s || e.v == w.s {
			pivot = i
			break
		}
	}
	e := w.edges[pivot]
	if (e.u == w.s && e.v == w.t) || (e.v == w.s && e.u == w.t) {
		// Contracting a terminal-to-terminal edge merges s with t: that
		// branch is surely connected and contributes p directly.
		return e.p + (1-e.p)*factor(remove(w, pivot))
	}
	up := contract(w, pivot)
	down := remove(w, pivot)
	return e.p*factor(up) + (1-e.p)*factor(down)
}

// reduce applies parallel and series reductions and drops dangling edges
// until a fixed point.
func reduce(w *workGraph) *workGraph {
	for { //numvet:allow unbounded-loop each pass strictly shrinks the edge set or exits via !changed
		changed := false
		// Parallel reduction: merge duplicate (u,v) pairs.
		type key struct{ a, b int }
		seen := make(map[key]int, len(w.edges))
		var merged []workEdge
		for _, e := range w.edges {
			a, b := e.u, e.v
			if a > b {
				a, b = b, a
			}
			if idx, ok := seen[key{a, b}]; ok {
				merged[idx].p = 1 - (1-merged[idx].p)*(1-e.p)
				changed = true
				continue
			}
			seen[key{a, b}] = len(merged)
			merged = append(merged, e)
		}
		w = &workGraph{n: w.n, edges: merged, s: w.s, t: w.t}

		// Degree count for series reduction and dangling removal.
		deg := make([]int, w.n)
		for _, e := range w.edges {
			deg[e.u]++
			deg[e.v]++
		}
		// Remove dangling degree-1 nodes that are neither s nor t.
		removedAny := false
		var kept []workEdge
		for _, e := range w.edges {
			dangling := (deg[e.u] == 1 && e.u != w.s && e.u != w.t) ||
				(deg[e.v] == 1 && e.v != w.s && e.v != w.t)
			if dangling {
				removedAny = true
				continue
			}
			kept = append(kept, e)
		}
		if removedAny {
			w.edges = kept
			changed = true
			continue // recompute degrees
		}
		// Series reduction: internal degree-2 node x with edges (a,x),(x,b),
		// a != b: replace by (a,b) with p1·p2.
		for x := 0; x < w.n; x++ {
			if x == w.s || x == w.t || deg[x] != 2 {
				continue
			}
			var idx []int
			for i, e := range w.edges {
				if e.u == x || e.v == x {
					idx = append(idx, i)
				}
			}
			if len(idx) != 2 {
				continue
			}
			e1, e2 := w.edges[idx[0]], w.edges[idx[1]]
			other := func(e workEdge) int {
				if e.u == x {
					return e.v
				}
				return e.u
			}
			a, b := other(e1), other(e2)
			if a == b {
				// Self-loop after merge: both edges vanish (a loop never
				// helps connectivity).
				w.edges = deleteIndices(w.edges, idx)
				changed = true
				break
			}
			ne := workEdge{u: a, v: b, p: e1.p * e2.p}
			w.edges = append(deleteIndices(w.edges, idx), ne)
			changed = true
			break
		}
		if !changed {
			return w
		}
	}
}

func deleteIndices(edges []workEdge, idx []int) []workEdge {
	drop := make(map[int]bool, len(idx))
	for _, i := range idx {
		drop[i] = true
	}
	out := make([]workEdge, 0, len(edges)-len(idx))
	for i, e := range edges {
		if !drop[i] {
			out = append(out, e)
		}
	}
	return out
}

// connected reports whether s and t are joined ignoring probabilities.
func connected(w *workGraph) bool {
	adj := make([][]int, w.n)
	for _, e := range w.edges {
		adj[e.u] = append(adj[e.u], e.v)
		adj[e.v] = append(adj[e.v], e.u)
	}
	seen := make([]bool, w.n)
	stack := []int{w.s}
	seen[w.s] = true
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x == w.t {
			return true
		}
		for _, y := range adj[x] {
			if !seen[y] {
				seen[y] = true
				stack = append(stack, y)
			}
		}
	}
	return false
}

// contract merges the endpoints of edge i (edge works for sure).
func contract(w *workGraph, i int) *workGraph {
	e := w.edges[i]
	keep, gone := e.u, e.v
	if gone == w.s || gone == w.t {
		keep, gone = gone, keep
	}
	out := &workGraph{n: w.n, s: w.s, t: w.t}
	for j, other := range w.edges {
		if j == i {
			continue
		}
		ne := other
		if ne.u == gone {
			ne.u = keep
		}
		if ne.v == gone {
			ne.v = keep
		}
		if ne.u == ne.v {
			continue // self loop
		}
		out.edges = append(out.edges, ne)
	}
	return out
}

// remove deletes edge i (edge failed for sure).
func remove(w *workGraph, i int) *workGraph {
	out := &workGraph{n: w.n, s: w.s, t: w.t}
	out.edges = append(out.edges, w.edges[:i]...)
	out.edges = append(out.edges, w.edges[i+1:]...)
	return out
}
