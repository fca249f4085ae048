package markov

import (
	"fmt"

	"repro/internal/relstruct"
)

// This file connects the chains to internal/relstruct's static analysis.
// The "chain" solver method consults the analysis before running: a stiff
// or periodic chain reorders its fallback steps exact-method-first, and a
// reducible chain with a single recurrent class solves only that class
// and zero-pads the transient states (which carry no stationary mass).

// structInput hands a chain's states and transition arrays to relstruct
// as they are: both number states by index, so nothing is copied.
func structInput(names []string, e *edges, discrete bool) relstruct.Input {
	return relstruct.Input{States: len(names), Names: names, From: e.from, To: e.to, Weight: e.rate, Discrete: discrete}
}

// StructReport statically analyzes the chain (SCC condensation,
// stiffness, lumpability, solver hint) without solving it.
func (c *CTMC) StructReport() (*relstruct.StructReport, error) {
	return relstruct.Analyze(structInput(c.names, &c.edges, false))
}

// StructReport statically analyzes the discrete chain, including the
// periodicity of its recurrent classes.
func (d *DTMC) StructReport() (*relstruct.StructReport, error) {
	return relstruct.Analyze(structInput(d.names, &d.edges, true))
}

// restrictRecurrent builds the sub-chain over the chain's single
// recurrent class, returning it with the original state indices of its
// members (ascending; member j of the sub-chain is state members[j]).
func (c *CTMC) restrictRecurrent(rep *relstruct.StructReport) (*CTMC, []int, error) {
	members := rep.RecurrentMembers(0)
	if len(members) == 0 {
		return nil, nil, fmt.Errorf("markov: no recurrent class to restrict to")
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
			// A recurrent class is closed; an escaping edge means the
			// report does not describe this chain.
			return nil, nil, fmt.Errorf("markov: transition %q -> %q leaves the recurrent class",
				c.names[t.from], c.names[t.to])
		}
		sub.add(jf, jt, t.rate)
	}
	return sub, members, nil
}
