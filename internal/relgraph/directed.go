package relgraph

import (
	"fmt"
	"sort"

	"repro/internal/bdd"
)

// Directed s–t reliability: edges carry a direction (From → To), as in
// communication networks with one-way links. Factoring with undirected
// contraction does not apply, so the solver enumerates directed minimal
// paths and evaluates the coverage function exactly on a BDD (sound for
// any edge count whose path structure keeps the BDD manageable — the
// regime reliability graphs are used in).

// DiGraph is a directed reliability graph.
type DiGraph struct {
	edges []Edge
	nodes map[string]bool
}

// NewDirected returns an empty directed graph.
func NewDirected() *DiGraph { //numvet:allow unused-export oracle: BDD path solver, to check factoring on symmetric edges
	return &DiGraph{nodes: make(map[string]bool)}
}

// AddEdge appends a directed edge From → To.
func (g *DiGraph) AddEdge(e Edge) error { //numvet:allow unused-export oracle: part of the DiGraph path solver
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
func (g *DiGraph) Edges() []Edge { //numvet:allow unused-export oracle: part of the DiGraph path solver
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// MinimalPaths enumerates the node-simple directed s→t paths as edge-name
// lists.
func (g *DiGraph) MinimalPaths(source, target string) ([][]string, error) {
	if !g.nodes[source] {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchNode, source)
	}
	if !g.nodes[target] {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchNode, target)
	}
	adj := make(map[string][]int)
	for i, e := range g.edges {
		adj[e.From] = append(adj[e.From], i)
	}
	var paths [][]string
	visited := map[string]bool{source: true}
	var walk func(node string, trail []int)
	walk = func(node string, trail []int) {
		if node == target {
			names := make([]string, len(trail))
			for i, ei := range trail {
				names[i] = g.edges[ei].Name
			}
			paths = append(paths, names)
			return
		}
		for _, ei := range adj[node] {
			next := g.edges[ei].To
			if visited[next] {
				continue
			}
			visited[next] = true
			walk(next, append(trail, ei))
			visited[next] = false
		}
	}
	walk(source, nil)
	sort.Slice(paths, func(i, j int) bool {
		if len(paths[i]) != len(paths[j]) {
			return len(paths[i]) < len(paths[j])
		}
		return fmt.Sprint(paths[i]) < fmt.Sprint(paths[j])
	})
	return paths, nil
}

// Reliability computes P(a working directed s→t path exists) exactly via
// the BDD of the path-coverage function.
func (g *DiGraph) Reliability(source, target string) (float64, error) { //numvet:allow unused-export oracle: part of the DiGraph path solver
	paths, err := g.MinimalPaths(source, target)
	if err != nil {
		return 0, err
	}
	if len(paths) == 0 {
		return 0, nil
	}
	idx := make(map[string]int, len(g.edges))
	for i, e := range g.edges {
		idx[e.Name] = i
	}
	mgr := bdd.New(len(g.edges))
	f := bdd.False
	for _, p := range paths {
		term := bdd.True
		for _, name := range p {
			v, err := mgr.Var(idx[name])
			if err != nil {
				return 0, err
			}
			term = mgr.And(term, v)
		}
		f = mgr.Or(f, term)
	}
	probs := make([]float64, len(g.edges))
	for i, e := range g.edges {
		probs[i] = e.Rel
	}
	return mgr.Prob(f, probs)
}

// MinimalCuts returns the minimal directed s→t edge cut sets.
func (g *DiGraph) MinimalCuts(source, target string) ([][]string, error) { //numvet:allow unused-export oracle: part of the DiGraph path solver
	paths, err := g.MinimalPaths(source, target)
	if err != nil {
		return nil, err
	}
	idx := make(map[string]int, len(g.edges))
	for i, e := range g.edges {
		idx[e.Name] = i
	}
	mgr := bdd.New(len(g.edges))
	f := bdd.True
	for _, p := range paths {
		clause := bdd.False
		for _, name := range p {
			v, err := mgr.Var(idx[name])
			if err != nil {
				return nil, err
			}
			clause = mgr.Or(clause, v)
		}
		f = mgr.And(f, clause)
	}
	cuts := mgr.MinimalCutSets(f)
	out := make([][]string, len(cuts))
	for i, c := range cuts {
		names := make([]string, len(c))
		for j, v := range c {
			names[j] = g.edges[v].Name
		}
		out[i] = names
	}
	return out, nil
}
