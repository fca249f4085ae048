package spn

import (
	"fmt"

	"repro/internal/markov"
)

// TangibleChain is the CTMC over tangible markings generated from a net,
// together with the marking associated with each chain state.
type TangibleChain struct {
	Chain    *markov.CTMC
	Markings []Marking // indexed like chain states
	net      *Net
}

// maxVanishingDepth bounds immediate-transition chains during vanishing
// elimination; deeper chains indicate a cycle among vanishing markings.
const maxVanishingDepth = 10000

// Generate explores the reachability graph from the initial marking,
// eliminates vanishing markings, and returns the tangible CTMC. maxStates
// bounds the exploration (0 means the default of 200,000 markings).
func (n *Net) Generate(maxStates int) (*TangibleChain, error) {
	if len(n.placeNames) == 0 {
		return nil, fmt.Errorf("spn: net has no places")
	}
	if maxStates <= 0 {
		maxStates = 200000
	}
	// Resolve the initial marking to a tangible distribution first.
	initDist, err := n.resolveVanishing(n.initial, 0)
	if err != nil {
		return nil, err
	}

	chain := markov.NewCTMC()
	tc := &TangibleChain{Chain: chain, net: n}
	index := make(map[string]int)
	var queue []Marking

	addTangible := func(m Marking) int {
		k := m.key()
		if i, ok := index[k]; ok {
			return i
		}
		i := len(tc.Markings)
		index[k] = i
		tc.Markings = append(tc.Markings, m.clone())
		chain.State(stateName(m))
		queue = append(queue, m.clone())
		return i
	}
	for k := range initDist {
		addTangible(initDist[k].marking)
	}

	for len(queue) > 0 {
		if len(tc.Markings) > maxStates {
			return nil, fmt.Errorf("%w: more than %d tangible markings", ErrStateSpaceLimit, maxStates)
		}
		m := queue[0]
		queue = queue[1:]
		from := stateName(m)
		for _, t := range n.trans {
			if t.kind != timed || !n.enabled(t, m) {
				continue
			}
			rate := t.rate(m)
			if rate <= 0 {
				continue
			}
			next := n.fire(t, m)
			dist, err := n.resolveVanishing(next, 0)
			if err != nil {
				return nil, err
			}
			for _, br := range dist {
				addTangible(br.marking)
				to := stateName(br.marking)
				if to == from {
					continue // a loop back to itself contributes nothing
				}
				if err := chain.AddRate(from, to, rate*br.prob); err != nil {
					return nil, err
				}
			}
		}
	}
	return tc, nil
}

type branch struct {
	marking Marking
	prob    float64
}

// resolveVanishing follows immediate-transition firings from m until only
// tangible markings remain, returning the tangible distribution. Cycles
// among vanishing markings are reported as errors.
func (n *Net) resolveVanishing(m Marking, depth int) ([]branch, error) {
	if depth > maxVanishingDepth {
		return nil, fmt.Errorf("%w (marking %v)", ErrVanishingLoop, m)
	}
	var enabledImm []*transDef
	for _, t := range n.trans {
		if t.kind == immediate && n.enabled(t, m) {
			enabledImm = append(enabledImm, t)
		}
	}
	if len(enabledImm) == 0 {
		return []branch{{marking: m.clone(), prob: 1}}, nil
	}
	var totalW float64
	for _, t := range enabledImm {
		totalW += t.rate(m)
	}
	var out []branch
	acc := make(map[string]int)
	for _, t := range enabledImm {
		p := t.rate(m) / totalW
		next := n.fire(t, m)
		sub, err := n.resolveVanishing(next, depth+1)
		if err != nil {
			return nil, err
		}
		for _, br := range sub {
			k := br.marking.key()
			if i, ok := acc[k]; ok {
				out[i].prob += p * br.prob
				continue
			}
			acc[k] = len(out)
			out = append(out, branch{marking: br.marking, prob: p * br.prob})
		}
	}
	return out, nil
}

// stateName renders a marking as a chain-state name.
func stateName(m Marking) string { return m.key() }

// NumTangible returns the number of tangible markings.
func (tc *TangibleChain) NumTangible() int { return len(tc.Markings) }

// SteadyState returns the stationary probability of each tangible marking.
func (tc *TangibleChain) SteadyState() ([]float64, error) {
	return tc.Chain.SteadyState()
}

// ProbWhere returns the steady-state probability that cond holds.
func (tc *TangibleChain) ProbWhere(cond func(Marking) bool) (float64, error) {
	pi, err := tc.SteadyState()
	if err != nil {
		return 0, err
	}
	var p float64
	for i, m := range tc.Markings {
		if cond(m) {
			p += pi[i]
		}
	}
	return p, nil
}

// ExpectedTokens returns the steady-state expected token count in a place.
func (tc *TangibleChain) ExpectedTokens(place string) (float64, error) {
	pi, err := tc.net.PlaceIndex(place)
	if err != nil {
		return 0, err
	}
	probs, err := tc.SteadyState()
	if err != nil {
		return 0, err
	}
	var e float64
	for i, m := range tc.Markings {
		e += probs[i] * float64(m[pi])
	}
	return e, nil
}

// Throughput returns the steady-state firing rate of a timed transition:
// Σ_m π(m)·rate(m) over markings enabling it.
func (tc *TangibleChain) Throughput(transition string) (float64, error) {
	ti, ok := tc.net.transIdx[transition]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownTransition, transition)
	}
	t := tc.net.trans[ti]
	if t.kind != timed {
		return 0, fmt.Errorf("spn: %q is immediate; throughput is defined for timed transitions", transition)
	}
	probs, err := tc.SteadyState()
	if err != nil {
		return 0, err
	}
	var thr float64
	for i, m := range tc.Markings {
		if tc.net.enabled(t, m) {
			thr += probs[i] * t.rate(m)
		}
	}
	return thr, nil
}

// Utilization returns the steady-state probability that the transition is
// enabled.
func (tc *TangibleChain) Utilization(transition string) (float64, error) { //numvet:allow unused-export inventory: DESIGN row 9, utilization
	ti, ok := tc.net.transIdx[transition]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownTransition, transition)
	}
	t := tc.net.trans[ti]
	probs, err := tc.SteadyState()
	if err != nil {
		return 0, err
	}
	var u float64
	for i, m := range tc.Markings {
		if tc.net.enabled(t, m) {
			u += probs[i]
		}
	}
	return u, nil
}
