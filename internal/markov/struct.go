package markov

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/relstruct"
)

// This file connects the chains to internal/relstruct's static analysis.
// The "chain" solver method consults the analysis before running: a stiff
// or periodic chain reorders its fallback steps exact-method-first, and a
// reducible chain with a single recurrent class solves only that class
// and zero-pads the transient states (which carry no stationary mass).
// The "auto" method reads only the closed classes and the rate spread,
// and between its cutoffs solves a lone closed class the same way.

// structInput hands a chain's states and transition arrays to relstruct
// as they are: both number states by index, so nothing is copied.
func structInput(names []string, e *edges, discrete bool) relstruct.Input {
	return relstruct.Input{States: len(names), Names: names, From: e.from, To: e.to, Weight: e.rate, Discrete: discrete}
}

// structure statically analyzes the chain (SCC condensation, stiffness,
// solver hint) for the chain solver, without the lumping partition,
// which the solver does not read.
func (c *CTMC) structure() (*relstruct.StructReport, error) {
	return relstruct.AnalyzeClasses(structInput(c.names, &c.edges, false))
}

// structure statically analyzes the discrete chain, including the
// periodicity of its recurrent classes, without the lumping partition.
func (d *DTMC) structure() (*relstruct.StructReport, error) {
	return relstruct.AnalyzeClasses(structInput(d.names, &d.edges, true))
}

// closedClasses finds the closed classes of c, whose generator is q, from
// q's pattern alone (see relstruct.ClosedClasses): the class of each
// state, -1 for a transient one, and their number. A chain with a fixed
// structure finds them once (see CTMC.classes).
func (c *CTMC) closedClasses(q *linalg.CSR) ([]int, int) {
	find := func() ([]int, int) {
		return relstruct.ClosedClasses(q.Rows(), func(v int) []int {
			cols, _ := q.Row(v)
			return cols
		})
	}
	cc := c.classes
	if cc == nil {
		return find()
	}
	cc.once.Do(func() { cc.closedOf, cc.closed = find() })
	return cc.closedOf, cc.closed
}

// sorClass reports whether auto may solve c, whose generator is q, by SOR
// between the cutoffs: c has one closed class of several states, and the
// ratio of its largest to its smallest rate inside that class (the
// class's RateRatio in c's relstruct report) is below
// relstruct.StiffThreshold. When other states lie outside the class, it
// also returns the class's states, ascending, for SOR to solve the class
// alone: transient states carry no stationary mass, and judged by
// relative change SOR cannot settle a cycle of them, whose mass shrinks
// by a constant factor each sweep until it underflows.
func (c *CTMC) sorClass(q *linalg.CSR) (class []int, ok bool) {
	closedOf, closed := c.closedClasses(q)
	if closed != 1 {
		return nil, false
	}
	lo, hi := math.Inf(1), 0.0
	for k, f := range c.from {
		// A closed class's transitions all stay inside it.
		if closedOf[f] == 0 {
			lo = math.Min(lo, c.rate[k])
			hi = math.Max(hi, c.rate[k])
		}
	}
	if !(hi > 0 && hi/lo < relstruct.StiffThreshold) {
		return nil, false
	}
	return c.loneClosedClass(q), true
}

// loneClosedClass returns the states, ascending, of c's one closed class
// when c, whose generator is q, has exactly one and some transient
// states besides; nil otherwise.
func (c *CTMC) loneClosedClass(q *linalg.CSR) []int {
	closedOf, closed := c.closedClasses(q)
	if closed != 1 || !slices.Contains(closedOf, -1) {
		return nil
	}
	var class []int
	for s, cl := range closedOf {
		if cl == 0 {
			class = append(class, s)
		}
	}
	return class
}

// notUnique is the error for a chain with several closed classes, whose
// long-run distribution depends on where it starts.
func notUnique(closed int) error {
	return fmt.Errorf("markov steady state: %d closed classes, so the long-run distribution is not unique; %w",
		closed, linalg.ErrReducible)
}

// restricted returns the generator of c's sub-chain over members, the
// ascending states of a closed class (member j of the sub-chain is state
// members[j]), and records the reduction on rec. It returns nil when
// members is empty or not closed, or the generator cannot be built; the
// caller then solves the whole chain.
func (c *CTMC) restricted(members []int, rec obs.Recorder) *linalg.CSR {
	if len(members) == 0 {
		return nil
	}
	pos := make(map[int]int, len(members))
	sub := NewCTMC()
	for j, s := range members {
		pos[s] = j
		sub.State(c.names[s])
	}
	for k := range c.from {
		t := c.edge(k)
		jf, ok := pos[t.from]
		if !ok {
			continue
		}
		jt, ok := pos[t.to]
		if !ok {
			// A closed class has no escaping edge; one means members do
			// not describe this chain.
			return nil
		}
		sub.add(jf, jt, t.rate)
	}
	q, err := sub.Generator()
	if err != nil {
		return nil
	}
	rec.Set(obs.S("struct_reduce", "restrict-recurrent"), obs.I("restrict_states", len(members)))
	return q
}
