// Package bdd implements reduced ordered binary decision diagrams (ROBDDs)
// with an ITE-based apply, probability evaluation, and minimal cut set
// extraction. BDDs are the workhorse for non-state-space reliability models:
// a structure function over independent components becomes a BDD, and the
// system unreliability is a single bottom-up pass over it (Rauzy's
// algorithm), regardless of repeated events.
package bdd

import (
	"fmt"
	"math/bits"

	"repro/internal/failpoint"
)

// fpAlloc is the node-allocation failpoint: an injected error poisons the
// manager exactly like a tripped node budget (construction unwinds
// cheaply, results must be discarded), surfacing through AllocFailure.
const fpAlloc = "bdd.alloc"

// Ref identifies a BDD node within a Manager. The terminals are False and
// True; all other refs index internal nodes.
type Ref int32

// Terminal node references.
const (
	False Ref = 0
	True  Ref = 1
)

// node is a BDD node: the variable it tests and its two children. A
// node's children are made before it, so they always have lower refs:
// ascending Ref order is a bottom-up order.
type node struct {
	level     int32 // variable index; terminals use a sentinel
	low, high Ref
}

const terminalLevel int32 = 1<<31 - 1

// Manager owns the node table and operation caches for a set of BDDs that
// share a variable ordering. It is not safe for concurrent use.
type Manager struct {
	nodes  []node
	unique table // (level, low, high) -> Ref
	iteC   table // (f, g, h) -> ITE(f, g, h)
	nvars  int

	nodeLimit int
	limitHit  bool
	allocErr  error

	iteHits, iteMisses int64

	// orders caches, per root, the internal nodes reachable from it in
	// ascending Ref order; a root's reachable set never changes.
	orders map[Ref][]Ref
	// vals is Prob's scratch: vals[r] holds Pr[r = 1] once the running
	// pass has reached r.
	vals []float64
}

// Stats reports manager-level telemetry: live node count and ITE
// operation-cache behavior. The counters are cheap enough to maintain
// unconditionally.
type Stats struct {
	// Nodes is the number of live nodes including the two terminals.
	Nodes int `json:"nodes"`
	// ITEHits and ITEMisses count operation-cache lookups in ITE.
	ITEHits   int64 `json:"ite_hits"`
	ITEMisses int64 `json:"ite_misses"`
}

// Stats returns a snapshot of the manager's counters.
func (m *Manager) Stats() Stats {
	return Stats{Nodes: len(m.nodes), ITEHits: m.iteHits, ITEMisses: m.iteMisses}
}

// New returns a manager for nvars Boolean variables, ordered by index.
func New(nvars int) *Manager {
	m := &Manager{
		unique: newTable(),
		iteC:   newTable(),
		nvars:  nvars,
	}
	m.nodes = append(m.nodes,
		node{level: terminalLevel}, // False
		node{level: terminalLevel}, // True
	)
	return m
}

// SetNodeLimit bounds the internal node table to limit nodes (terminals
// excluded); 0 removes the bound. Once the limit trips, node construction
// degrades to returning arbitrary existing refs — the manager's results
// are meaningless from that point and the caller must check LimitExceeded
// and discard them. The degradation keeps the remaining construction O(1)
// per operation, so an over-budget compile aborts cheaply instead of
// exhausting memory first.
func (m *Manager) SetNodeLimit(limit int) { m.nodeLimit = limit }

// LimitExceeded reports whether a SetNodeLimit budget has tripped.
func (m *Manager) LimitExceeded() bool { return m.limitHit }

// AllocFailure returns the injected allocation fault that poisoned this
// manager (nil outside fault-injection runs). A poisoned manager's
// results are meaningless, exactly as after a tripped node budget;
// constructors must check and discard.
func (m *Manager) AllocFailure() error { return m.allocErr }

// Size returns the number of live nodes (including terminals).
func (m *Manager) Size() int { return len(m.nodes) }

// Var returns the BDD for variable i.
func (m *Manager) Var(i int) (Ref, error) {
	if i < 0 || i >= m.nvars {
		return False, fmt.Errorf("bdd: variable %d outside [0,%d)", i, m.nvars)
	}
	return m.mk(int32(i), False, True), nil
}

// mk returns the canonical node (level, low, high), applying the reduction
// rules (no redundant tests, shared subgraphs).
func (m *Manager) mk(level int32, low, high Ref) Ref {
	if low == high {
		return low
	}
	slot, ok := m.unique.find(level, int32(low), int32(high))
	if ok {
		return Ref(m.unique.value(slot))
	}
	if m.nodeLimit > 0 && len(m.nodes)-2 >= m.nodeLimit {
		m.limitHit = true
		return low
	}
	if err := failpoint.Inject(fpAlloc); err != nil {
		// Poison the manager and unwind the construction cheaply, the same
		// degradation path as an exhausted node budget.
		m.limitHit = true
		m.allocErr = err
		return low
	}
	r := Ref(len(m.nodes))
	m.nodes = append(m.nodes, node{level: level, low: low, high: high})
	m.unique.insert(slot, level, int32(low), int32(high), int32(r))
	return r
}

func (m *Manager) level(r Ref) int32 { return m.nodes[r].level }

// ITE computes if-then-else(f, g, h) = f·g + ¬f·h. All Boolean connectives
// reduce to ITE.
func (m *Manager) ITE(f, g, h Ref) Ref {
	if m.limitHit {
		// The node budget already tripped: results are discarded, so stop
		// doing real work and unwind the construction cheaply.
		return False
	}
	// Terminal cases.
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	}
	if slot, ok := m.iteC.find(int32(f), int32(g), int32(h)); ok {
		m.iteHits++
		return Ref(m.iteC.value(slot))
	}
	m.iteMisses++
	// Split on the top variable.
	lv := m.level(f)
	if l := m.level(g); l < lv {
		lv = l
	}
	if l := m.level(h); l < lv {
		lv = l
	}
	f0, f1 := m.cofactors(f, lv)
	g0, g1 := m.cofactors(g, lv)
	h0, h1 := m.cofactors(h, lv)
	low := m.ITE(f0, g0, h0)
	high := m.ITE(f1, g1, h1)
	r := m.mk(lv, low, high)
	// The recursion may have grown the table, so find the slot again.
	slot, _ := m.iteC.find(int32(f), int32(g), int32(h))
	m.iteC.insert(slot, int32(f), int32(g), int32(h), int32(r))
	return r
}

// cofactors returns (f|v=0, f|v=1) for the variable at the given level.
func (m *Manager) cofactors(f Ref, level int32) (Ref, Ref) {
	n := m.nodes[f]
	if n.level != level {
		return f, f
	}
	return n.low, n.high
}

// And returns f ∧ g.
func (m *Manager) And(f, g Ref) Ref { return m.ITE(f, g, False) }

// Or returns f ∨ g.
func (m *Manager) Or(f, g Ref) Ref { return m.ITE(f, True, g) }

// Not returns ¬f.
func (m *Manager) Not(f Ref) Ref { return m.ITE(f, False, True) }

// AndN folds And over its arguments (True for none), from the last to
// the first. When each argument's variables precede those of the
// arguments after it, as when variables are numbered in order of first
// appearance, each step descends only the new argument, so the fold
// costs the size of its arguments' diagrams.
func (m *Manager) AndN(fs ...Ref) Ref {
	r := True
	for i := len(fs) - 1; i >= 0; i-- {
		r = m.And(fs[i], r)
	}
	return r
}

// OrN folds Or over its arguments (False for none), from the last to the
// first, as AndN does.
func (m *Manager) OrN(fs ...Ref) Ref {
	r := False
	for i := len(fs) - 1; i >= 0; i-- {
		r = m.Or(fs[i], r)
	}
	return r
}

// KofN returns the function that is true when at least k of the given
// functions are true, built by dynamic programming over thresholds.
func (m *Manager) KofN(k int, fs []Ref) (Ref, error) {
	n := len(fs)
	if k < 0 || k > n {
		return False, fmt.Errorf("bdd: k=%d outside [0,%d]", k, n)
	}
	if k == 0 {
		return True, nil
	}
	// thr[j] = "at least j of the inputs seen so far are true".
	thr := make([]Ref, k+1)
	thr[0] = True
	for j := 1; j <= k; j++ {
		thr[j] = False
	}
	for _, f := range fs {
		for j := k; j >= 1; j-- {
			thr[j] = m.ITE(f, thr[j-1], thr[j])
		}
	}
	return thr[k], nil
}

// Restrict returns f with variable v fixed to the given value.
func (m *Manager) Restrict(f Ref, v int, value bool) (Ref, error) {
	if v < 0 || v >= m.nvars {
		return False, fmt.Errorf("bdd: variable %d outside [0,%d)", v, m.nvars)
	}
	memo := make(map[Ref]Ref)
	var rec func(Ref) Ref
	rec = func(r Ref) Ref {
		n := m.nodes[r]
		if n.level == terminalLevel {
			return r
		}
		if got, ok := memo[r]; ok {
			return got
		}
		var out Ref
		switch {
		case int(n.level) == v:
			if value {
				out = rec(n.high)
			} else {
				out = rec(n.low)
			}
		case int(n.level) > v:
			out = r
		default:
			out = m.mk(n.level, rec(n.low), rec(n.high))
		}
		memo[r] = out
		return out
	}
	return rec(f), nil
}

// NodeCount returns the number of distinct internal nodes reachable from f.
func (m *Manager) NodeCount(f Ref) int { return len(m.order(f)) }

// order returns the internal nodes reachable from f in ascending Ref
// order, children before parents, and caches it for f.
func (m *Manager) order(f Ref) []Ref {
	if f == False || f == True {
		return nil
	}
	if ord, ok := m.orders[f]; ok {
		return ord
	}
	// Every node reachable from f has a ref at most f: mark them in a
	// bitset over [0, f], then read the marks in ascending order.
	seen := make([]uint64, int(f)/64+1)
	stack := []Ref{f}
	count := 0
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if r == False || r == True || seen[r/64]&(1<<(r%64)) != 0 {
			continue
		}
		seen[r/64] |= 1 << (r % 64)
		count++
		stack = append(stack, m.nodes[r].low, m.nodes[r].high)
	}
	ord := make([]Ref, 0, count)
	for w, word := range seen {
		for word != 0 {
			ord = append(ord, Ref(w*64+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	if m.orders == nil {
		m.orders = make(map[Ref][]Ref)
	}
	m.orders[f] = ord
	return ord
}

// SatCount returns the number of satisfying assignments over all nvars
// variables as a float64 (exact for counts below 2^53).
func (m *Manager) SatCount(f Ref) float64 { //numvet:allow unused-export oracle: checks Prob in TestProbMatchesTruthTableProperty
	memo := make(map[Ref]float64)
	var rec func(Ref, int32) float64
	rec = func(r Ref, fromLevel int32) float64 {
		n := m.nodes[r]
		lvl := n.level
		if lvl == terminalLevel {
			lvl = int32(m.nvars)
		}
		var base float64 // count over variables lvl..nvars-1
		if n.level == terminalLevel {
			if r == True {
				base = 1
			}
		} else if got, ok := memo[r]; ok {
			base = got
		} else {
			base = rec(n.low, lvl+1) + rec(n.high, lvl+1)
			memo[r] = base
		}
		// Variables between fromLevel and lvl are unconstrained.
		return base * pow2(int(lvl-fromLevel))
	}
	return rec(f, 0)
}

func pow2(k int) float64 {
	out := 1.0
	for i := 0; i < k; i++ {
		out *= 2
	}
	return out
}
