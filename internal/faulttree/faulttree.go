// Package faulttree implements fault-tree analysis: AND/OR/k-of-n/NOT gates
// over basic events, with repeated events handled exactly through a BDD
// encoding. It provides top-event probability, minimal cut sets (both via
// the BDD and via classic MOCUS gate expansion), the rare-event and
// inclusion–exclusion cut-set approximations, and the standard importance
// measures (Birnbaum, criticality, Fussell–Vesely).
//
// Fault trees are the second of the tutorial's non-state-space model types;
// like RBDs they assume independent events, and like RBDs they are solved
// in time linear in the BDD size rather than exponential in the number of
// events.
package faulttree

import (
	"errors"
	"fmt"

	"repro/internal/bdd"
	"repro/internal/dist"
	"repro/internal/guard"
)

// Event is a basic event (component failure mode).
type Event struct {
	// Name identifies the event; must be unique within a tree.
	Name string
	// Prob is the event probability used when no lifetime is given.
	Prob float64
	// Lifetime optionally gives a time-to-occurrence distribution so the
	// top event can be evaluated as a function of mission time.
	Lifetime dist.Distribution
}

// Node is a node of the gate tree, created with Basic, And, Or, AtLeast,
// and Not.
type Node struct {
	kind     nodeKind
	k        int
	event    *Event
	children []*Node
}

type nodeKind int

const (
	kindBasic nodeKind = iota + 1
	kindAnd
	kindOr
	kindAtLeast
	kindNot
)

// Basic wraps a basic event as a leaf. The same *Event may appear under
// several gates (a repeated event).
func Basic(e *Event) *Node { return &Node{kind: kindBasic, event: e} }

// And returns a gate that fires when all children fire.
func And(children ...*Node) *Node { return &Node{kind: kindAnd, children: children} }

// Or returns a gate that fires when any child fires.
func Or(children ...*Node) *Node { return &Node{kind: kindOr, children: children} }

// AtLeast returns a k-of-n voting gate.
func AtLeast(k int, children ...*Node) *Node {
	return &Node{kind: kindAtLeast, k: k, children: children}
}

// Not returns the complement of its child; the tree becomes non-coherent
// and MOCUS is unavailable, but BDD analysis remains exact.
func Not(child *Node) *Node { return &Node{kind: kindNot, children: []*Node{child}} }

// Tree is a compiled fault tree.
type Tree struct {
	events   []*Event
	index    map[*Event]int
	mgr      *bdd.Manager
	top      bdd.Ref
	root     *Node
	coherent bool
}

// Errors returned by tree construction and analysis.
var (
	ErrMalformed   = errors.New("faulttree: malformed tree")
	ErrNonCoherent = errors.New("faulttree: operation requires a coherent tree (no NOT gates)")
	ErrNoLifetime  = errors.New("faulttree: event lacks a lifetime distribution")
	ErrNoBDD       = errors.New("faulttree: operation requires a compiled BDD (tree built with NewCutSetsOnly)")
	// ErrInfiniteMTTF ends the error of an MTTF whose top event does not
	// surely occur: "faulttree: system survives forever with probability
	// 1; MTTF infinite".
	ErrInfiniteMTTF = errors.New("MTTF infinite")
)

// New compiles the gate tree rooted at top.
func New(top *Node) (*Tree, error) {
	return NewWithBudget(top, 0)
}

// NewWithBudget compiles like New but refuses to grow the top-event BDD
// past budget internal nodes, returning a *guard.BudgetError instead (the
// Boeing path: a model too large for exact solution, where the cut-set
// bounding fallback must take over). A budget of 0 is unlimited.
func NewWithBudget(top *Node, budget int) (*Tree, error) {
	t, err := newTree(top)
	if err != nil {
		return nil, err
	}
	t.mgr = bdd.New(len(t.events))
	if budget > 0 {
		t.mgr.SetNodeLimit(budget)
	}
	ref, err := t.compile(top)
	if err != nil {
		return nil, err
	}
	if err := t.mgr.AllocFailure(); err != nil {
		// An injected allocation fault poisoned the manager; its refs are
		// meaningless, so surface the typed failpoint error.
		return nil, err
	}
	if t.mgr.LimitExceeded() {
		return nil, &guard.BudgetError{Op: "faulttree.bdd", Budget: budget, Actual: t.mgr.Size() - 2}
	}
	t.top = ref
	return t, nil
}

// NewCutSetsOnly validates and indexes the gate tree without compiling a
// BDD. The resulting tree supports only the cut-set analyses (MOCUS,
// CutSets, RareEventBoundLog); the BDD-backed methods return ErrNoBDD.
// This is the fallback representation when a BDD budget is exceeded.
func NewCutSetsOnly(top *Node) (*Tree, error) {
	return newTree(top)
}

// newTree collects and validates the events without touching a BDD.
func newTree(top *Node) (*Tree, error) {
	if top == nil {
		return nil, fmt.Errorf("%w: nil root", ErrMalformed)
	}
	t := &Tree{index: make(map[*Event]int), coherent: true, root: top}
	if err := t.collect(top); err != nil {
		return nil, err
	}
	if len(t.events) == 0 {
		return nil, fmt.Errorf("%w: no basic events", ErrMalformed)
	}
	names := make(map[string]bool, len(t.events))
	for _, e := range t.events {
		if names[e.Name] {
			return nil, fmt.Errorf("faulttree: duplicate event name %q", e.Name)
		}
		names[e.Name] = true
	}
	return t, nil
}

func (t *Tree) collect(n *Node) error {
	switch n.kind {
	case kindBasic:
		if n.event == nil {
			return fmt.Errorf("%w: nil event", ErrMalformed)
		}
		if _, ok := t.index[n.event]; !ok {
			t.index[n.event] = len(t.events)
			t.events = append(t.events, n.event)
		}
		return nil
	case kindNot:
		t.coherent = false
		fallthrough
	case kindAnd, kindOr, kindAtLeast:
		if len(n.children) == 0 {
			return fmt.Errorf("%w: empty gate", ErrMalformed)
		}
		if n.kind == kindAtLeast && (n.k < 1 || n.k > len(n.children)) {
			return fmt.Errorf("%w: k=%d with %d children", ErrMalformed, n.k, len(n.children))
		}
		if n.kind == kindNot && len(n.children) != 1 {
			return fmt.Errorf("%w: NOT takes exactly one child", ErrMalformed)
		}
		for _, c := range n.children {
			if c == nil {
				return fmt.Errorf("%w: nil child", ErrMalformed)
			}
			if err := t.collect(c); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("%w: unknown node kind %d", ErrMalformed, n.kind)
	}
}

func (t *Tree) compile(n *Node) (bdd.Ref, error) {
	switch n.kind {
	case kindBasic:
		return t.mgr.Var(t.index[n.event])
	case kindNot:
		c, err := t.compile(n.children[0])
		if err != nil {
			return bdd.False, err
		}
		return t.mgr.Not(c), nil
	case kindAnd, kindOr, kindAtLeast:
		refs := make([]bdd.Ref, len(n.children))
		for i, c := range n.children {
			r, err := t.compile(c)
			if err != nil {
				return bdd.False, err
			}
			refs[i] = r
		}
		switch n.kind {
		case kindAnd:
			return t.mgr.AndN(refs...), nil
		case kindOr:
			return t.mgr.OrN(refs...), nil
		default:
			return t.mgr.KofN(n.k, refs)
		}
	default:
		return bdd.False, fmt.Errorf("%w: unknown node kind %d", ErrMalformed, n.kind)
	}
}

// Events returns the tree's basic events in variable order.
func (t *Tree) Events() []*Event {
	out := make([]*Event, len(t.events))
	copy(out, t.events)
	return out
}

// BDDSize returns the node count of the top-event BDD (0 for a
// cut-sets-only tree).
func (t *Tree) BDDSize() int {
	if t.mgr == nil {
		return 0
	}
	return t.mgr.NodeCount(t.top)
}

// BDDStats returns the underlying BDD manager's node and ITE-cache
// counters (for solver telemetry; zero for a cut-sets-only tree).
func (t *Tree) BDDStats() bdd.Stats {
	if t.mgr == nil {
		return bdd.Stats{}
	}
	return t.mgr.Stats()
}

// TopProbability returns the exact top-event probability given event
// probabilities from probOf.
func (t *Tree) TopProbability(probOf func(*Event) float64) (float64, error) {
	if t.mgr == nil {
		return 0, ErrNoBDD
	}
	p := make([]float64, len(t.events))
	for i, e := range t.events {
		p[i] = probOf(e)
	}
	return t.mgr.Prob(t.top, p)
}

// TopStatic evaluates the top-event probability using each event's Prob
// field.
func (t *Tree) TopStatic() (float64, error) {
	return t.TopProbability(func(e *Event) float64 { return e.Prob })
}

// TopAt evaluates the top-event probability at mission time tau using each
// event's lifetime CDF.
func (t *Tree) TopAt(tau float64) (float64, error) {
	var missing *Event
	v, err := t.TopProbability(func(e *Event) float64 {
		if e.Lifetime == nil {
			missing = e
			return 0
		}
		return e.Lifetime.CDF(tau)
	})
	if missing != nil {
		return 0, fmt.Errorf("%w: %q", ErrNoLifetime, missing.Name)
	}
	return v, err
}

// MinimalCutSets returns the minimal cut sets (as event-name lists) via the
// BDD. For non-coherent trees the result is the positive-literal minimal
// solutions. It returns nil for a cut-sets-only tree; use CutSets there.
func (t *Tree) MinimalCutSets() [][]string {
	if t.mgr == nil {
		return nil
	}
	cuts := t.mgr.MinimalCutSets(t.top)
	out := make([][]string, len(cuts))
	for i, c := range cuts {
		names := make([]string, len(c))
		for j, v := range c {
			names[j] = t.events[v].Name
		}
		out[i] = names
	}
	return out
}

// CutSets returns the minimal cut sets through whichever representation the
// tree has: the BDD when compiled, MOCUS gate expansion otherwise.
func (t *Tree) CutSets() ([][]string, error) {
	if t.mgr != nil {
		return t.MinimalCutSets(), nil
	}
	return t.MOCUS(0)
}

// RareEventBoundLog returns the natural log of the rare-event upper bound
// on the top-event probability, evaluated entirely in log space so that
// per-cut products far below the smallest positive float64 (dozens of
// 1e-12 events in one cut) still produce a usable bound instead of
// underflowing to zero. Works on both compiled and cut-sets-only trees;
// requires a coherent tree.
func (t *Tree) RareEventBoundLog() (float64, error) {
	if !t.coherent {
		return 0, ErrNonCoherent
	}
	cuts, err := t.CutSets()
	if err != nil {
		return 0, err
	}
	probOf := make(map[string]float64, len(t.events))
	for _, e := range t.events {
		probOf[e.Name] = e.Prob
	}
	logs := make([]float64, len(cuts))
	for i, c := range cuts {
		ps := make([]float64, len(c))
		for j, name := range c {
			ps[j] = probOf[name]
		}
		lc, err := guard.LogCutProb(ps)
		if err != nil {
			return 0, fmt.Errorf("faulttree: cut %v: %w", c, err)
		}
		logs[i] = lc
	}
	return guard.LogRareEvent(logs), nil
}
