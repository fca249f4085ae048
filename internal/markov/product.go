package markov

import (
	"fmt"
)

// Product returns the joint CTMC of two chains evolving independently (the
// Kronecker sum of their generators): joint states are named "a|b" and
// each transition changes one coordinate. Composing with Product is the
// brute-force counterpart of hierarchical composition — exact for
// independent submodels, exponential in their number — and serves as the
// oracle that hierarchical results are checked against.
func Product(a, b *CTMC) (*CTMC, error) {
	if a == nil || b == nil {
		return nil, fmt.Errorf("markov product: nil chain")
	}
	if a.NumStates() == 0 || b.NumStates() == 0 {
		return nil, ErrEmptyChain
	}
	out := NewCTMC()
	join := func(sa, sb string) string { return sa + "|" + sb }
	// Materialize all joint states first so even isolated combinations
	// exist (deterministic ordering: a-major).
	for _, sa := range a.names {
		for _, sb := range b.names {
			out.State(join(sa, sb))
		}
	}
	for k := range a.from {
		t := a.edge(k)
		for _, sb := range b.names {
			if err := out.AddRate(join(a.names[t.from], sb), join(a.names[t.to], sb), t.rate); err != nil {
				return nil, err
			}
		}
	}
	for k := range b.from {
		t := b.edge(k)
		for _, sa := range a.names {
			if err := out.AddRate(join(sa, b.names[t.from]), join(sa, b.names[t.to]), t.rate); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// ProductN folds Product over several chains (left-associative naming:
// "a|b|c").
func ProductN(chains ...*CTMC) (*CTMC, error) { //numvet:allow unused-export oracle: Kronecker product of independent chains, to check hierarchical composition
	if len(chains) == 0 {
		return nil, ErrEmptyChain
	}
	acc := chains[0]
	for _, next := range chains[1:] {
		joined, err := Product(acc, next)
		if err != nil {
			return nil, err
		}
		acc = joined
	}
	return acc, nil
}
