package faulttree

import (
	"fmt"
)

// Common-cause failure (CCF) support via the beta-factor model: a fraction
// β of each member's failure probability is attributed to a shared cause
// that fails every member of the group simultaneously. The transformation
// rewrites each member event e as OR(e_independent, ccf_group) with
//
//	P(e_independent) = (1-β)·P(e),   P(ccf_group) = β·min_e P(e),
//
// which is the standard conservative discretization of the beta-factor
// model for unequal member probabilities. CCF is the tutorial's second big
// "independence violated in practice" mechanism (after shared repair).

// CCFGroup declares a common-cause group over member events of a tree
// specification.
type CCFGroup struct {
	// Name labels the group's shared-cause event.
	Name string
	// Beta is the common-cause fraction in (0, 1).
	Beta float64
	// Members lists the member event names.
	Members []string
}

// ApplyCCF rewrites the gate tree, replacing each member event of each
// group with OR(independent-part, group-cause) and returns the new tree.
// The input tree specification (events + root) is taken from the existing
// compiled tree; the returned tree is freshly compiled.
func (t *Tree) ApplyCCF(groups []CCFGroup) (*Tree, error) { //numvet:allow unused-export inventory: beta-factor common-cause groups
	if len(groups) == 0 {
		return nil, fmt.Errorf("%w: no CCF groups", ErrMalformed)
	}
	byName := make(map[string]*Event, len(t.events))
	for _, e := range t.events {
		byName[e.Name] = e
	}
	// Build replacement events.
	type replacement struct {
		independent *Event
		common      *Event
	}
	repl := make(map[string]replacement)
	for _, g := range groups {
		if g.Beta <= 0 || g.Beta >= 1 {
			return nil, fmt.Errorf("%w: group %q beta %g outside (0,1)", ErrMalformed, g.Name, g.Beta)
		}
		if len(g.Members) < 2 {
			return nil, fmt.Errorf("%w: group %q needs at least 2 members", ErrMalformed, g.Name)
		}
		minP := 1.0
		for _, name := range g.Members {
			e, ok := byName[name]
			if !ok {
				return nil, fmt.Errorf("%w: group %q member %q not in tree", ErrMalformed, g.Name, name)
			}
			if _, dup := repl[name]; dup {
				return nil, fmt.Errorf("%w: event %q in multiple CCF groups", ErrMalformed, name)
			}
			if e.Prob < minP {
				minP = e.Prob
			}
		}
		common := &Event{Name: g.Name, Prob: g.Beta * minP}
		for _, name := range g.Members {
			e := byName[name]
			repl[name] = replacement{
				independent: &Event{Name: name + ".indep", Prob: (1 - g.Beta) * e.Prob},
				common:      common,
			}
		}
	}
	// Rewrite the gate tree.
	var rewrite func(n *Node) *Node
	rewrite = func(n *Node) *Node {
		switch n.kind {
		case kindBasic:
			r, ok := repl[n.event.Name]
			if !ok {
				// Keep the identical event object so probabilities stay
				// shared with the original specification.
				return Basic(n.event)
			}
			return Or(Basic(r.independent), Basic(r.common))
		case kindNot:
			return Not(rewrite(n.children[0]))
		default:
			children := make([]*Node, len(n.children))
			for i, c := range n.children {
				children[i] = rewrite(c)
			}
			out := &Node{kind: n.kind, k: n.k, children: children}
			return out
		}
	}
	return New(rewrite(t.root))
}
