package faulttree

import (
	"fmt"
	"sort"
)

// Module detection (in the spirit of Dutuit–Rauzy): a gate is an
// independent module when the set of basic events below it is disjoint
// from the events appearing anywhere else in the tree. Modules can be
// solved in isolation and replaced by single pseudo-events — the
// tree-level counterpart of the tutorial's hierarchical decomposition, and
// the enabler for hybrid solutions (e.g., replacing a module by a Markov
// submodel's result).

// Module describes one maximal independent module.
type Module struct {
	// Gate is the depth-first index of the gate (root = 0), a stable
	// identifier for trees built in one expression.
	Gate int
	// Events lists the basic events under the module, sorted.
	Events []string
	// Probability is the module's top probability under the static event
	// probabilities.
	Probability float64
}

// Modules returns the maximal independent modules of a coherent tree,
// excluding the root (which is trivially a module) and single-event leaves
// (which are trivially modules of size one).
func (t *Tree) Modules() ([]Module, error) {
	if !t.coherent {
		return nil, ErrNonCoherent
	}
	// Count global occurrences of each event (leaf references).
	occurrences := make(map[*Event]int)
	var countOcc func(n *Node)
	countOcc = func(n *Node) {
		if n.kind == kindBasic {
			occurrences[n.event]++
			return
		}
		for _, c := range n.children {
			countOcc(c)
		}
	}
	countOcc(t.root)

	// Depth-first walk assigning gate indices and collecting, per gate,
	// its event multiset size and event set.
	type gateInfo struct {
		index  int
		node   *Node
		events map[*Event]int // occurrence counts within the subtree
	}
	var gates []gateInfo
	var walk func(n *Node) map[*Event]int
	nextIdx := 0
	walk = func(n *Node) map[*Event]int {
		idx := nextIdx
		nextIdx++
		if n.kind == kindBasic {
			return map[*Event]int{n.event: 1}
		}
		events := make(map[*Event]int)
		for _, c := range n.children {
			for e, k := range walk(c) {
				events[e] += k
			}
		}
		gates = append(gates, gateInfo{index: idx, node: n, events: events})
		return events
	}
	walk(t.root)

	// A gate is a module iff every event below it occurs globally exactly
	// as often as it occurs below the gate (no references from outside).
	isModule := func(g gateInfo) bool {
		for e, k := range g.events {
			if occurrences[e] != k {
				return false
			}
		}
		return true
	}
	// Keep maximal modules only: sort by subtree size descending and skip
	// gates whose event set is covered by an already-kept module.
	sort.Slice(gates, func(i, j int) bool { return len(gates[i].events) > len(gates[j].events) })
	var kept []gateInfo
	covered := make(map[*Event]bool)
	for _, g := range gates {
		if g.index == 0 {
			continue // root is trivially a module
		}
		if !isModule(g) {
			continue
		}
		sub := false
		for e := range g.events {
			if covered[e] {
				sub = true
				break
			}
		}
		if sub {
			continue
		}
		for e := range g.events {
			covered[e] = true
		}
		kept = append(kept, g)
	}
	out := make([]Module, 0, len(kept))
	for _, g := range kept {
		sub, err := New(g.node)
		if err != nil {
			return nil, fmt.Errorf("faulttree: module at gate %d: %w", g.index, err)
		}
		p, err := sub.TopStatic()
		if err != nil {
			return nil, err
		}
		names := make([]string, 0, len(g.events))
		for e := range g.events {
			names = append(names, e.Name)
		}
		sort.Strings(names)
		out = append(out, Module{Gate: g.index, Events: names, Probability: p})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Gate < out[j].Gate })
	return out, nil
}

// TopViaModules solves the tree by replacing every maximal independent
// module with a pseudo-event carrying the module's probability, then
// solving the reduced tree — and returns both the result and the reduced
// tree's event count. The result must equal TopStatic (asserted in tests);
// the reduction is what enables hybrid solutions.
func (t *Tree) TopViaModules() (float64, int, error) { //numvet:allow unused-export oracle: modular decomposition, to check the BDD top event
	mods, err := t.Modules()
	if err != nil {
		return 0, 0, err
	}
	if len(mods) == 0 {
		v, err := t.TopStatic()
		return v, len(t.events), err
	}
	// Map each module's gate node to its pseudo-event.
	modByGate := make(map[int]*Event, len(mods))
	for _, m := range mods {
		modByGate[m.Gate] = &Event{
			Name: fmt.Sprintf("module@%d", m.Gate),
			Prob: m.Probability,
		}
	}
	nextIdx := 0
	var rebuild func(n *Node) *Node
	rebuild = func(n *Node) *Node {
		idx := nextIdx
		nextIdx++
		if e, ok := modByGate[idx]; ok {
			// Consume the subtree's indices without descending for real.
			skip := countNodes(n) - 1
			nextIdx += skip
			return Basic(e)
		}
		if n.kind == kindBasic {
			return Basic(n.event)
		}
		children := make([]*Node, len(n.children))
		for i, c := range n.children {
			children[i] = rebuild(c)
		}
		return &Node{kind: n.kind, k: n.k, children: children}
	}
	reduced := rebuild(t.root)
	rt, err := New(reduced)
	if err != nil {
		return 0, 0, err
	}
	v, err := rt.TopStatic()
	if err != nil {
		return 0, 0, err
	}
	return v, len(rt.events), nil
}

// countNodes returns the subtree node count (gates + leaves).
func countNodes(n *Node) int {
	if n.kind == kindBasic {
		return 1
	}
	total := 1
	for _, c := range n.children {
		total += countNodes(c)
	}
	return total
}
