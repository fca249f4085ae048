package spn

import (
	"fmt"

	"repro/internal/markov"
)

// InitialDistribution returns the probability vector over tangible
// markings corresponding to the net's initial marking (after resolving any
// initial vanishing markings).
func (tc *TangibleChain) InitialDistribution() ([]float64, error) {
	dist, err := tc.net.resolveVanishing(tc.net.initial, 0)
	if err != nil {
		return nil, err
	}
	p0 := make([]float64, len(tc.Markings))
	index := make(map[string]int, len(tc.Markings))
	for i, m := range tc.Markings {
		index[m.key()] = i
	}
	for _, br := range dist {
		i, ok := index[br.marking.key()]
		if !ok {
			return nil, fmt.Errorf("spn: initial marking %v not tangible-reachable", br.marking)
		}
		p0[i] += br.prob
	}
	return p0, nil
}

// TransientProbWhere returns P(cond holds at time t) starting from the
// initial marking, via uniformization on the tangible chain.
func (tc *TangibleChain) TransientProbWhere(t float64, cond func(Marking) bool) (float64, error) { //numvet:allow unused-export delete: SPN transient measure; no binary reaches it, and it goes with its test
	p0, err := tc.InitialDistribution()
	if err != nil {
		return 0, err
	}
	p, err := tc.Chain.Transient(t, p0, markov.TransientOptions{})
	if err != nil {
		return 0, err
	}
	var out float64
	for i, m := range tc.Markings {
		if cond(m) {
			out += p[i]
		}
	}
	return out, nil
}

// IntervalProbWhere returns the expected fraction of [0, t] during which
// cond holds (e.g. interval availability of a GSPN model).
func (tc *TangibleChain) IntervalProbWhere(t float64, cond func(Marking) bool) (float64, error) { //numvet:allow unused-export delete: SPN transient measure; no binary reaches it, and it goes with its test
	if t <= 0 {
		return 0, fmt.Errorf("spn: interval measure needs t > 0, got %g", t)
	}
	p0, err := tc.InitialDistribution()
	if err != nil {
		return 0, err
	}
	occ, err := tc.Chain.CumulativeTransient(t, p0, markov.TransientOptions{})
	if err != nil {
		return 0, err
	}
	var out float64
	for i, m := range tc.Markings {
		if cond(m) {
			out += occ[i]
		}
	}
	return out / t, nil
}

// ExpectedTokensAt returns the expected token count of a place at time t.
func (tc *TangibleChain) ExpectedTokensAt(t float64, place string) (float64, error) { //numvet:allow unused-export delete: SPN transient measure; no binary reaches it, and it goes with its test
	pi, err := tc.net.PlaceIndex(place)
	if err != nil {
		return 0, err
	}
	p0, err := tc.InitialDistribution()
	if err != nil {
		return 0, err
	}
	p, err := tc.Chain.Transient(t, p0, markov.TransientOptions{})
	if err != nil {
		return 0, err
	}
	var e float64
	for i, m := range tc.Markings {
		e += p[i] * float64(m[pi])
	}
	return e, nil
}

// MTTAWhere returns the mean time, from the initial marking, until a
// marking satisfying cond is first reached (e.g. system MTTF of a GSPN
// availability model).
func (tc *TangibleChain) MTTAWhere(cond func(Marking) bool) (float64, error) { //numvet:allow unused-export delete: SPN transient measure; no binary reaches it, and it goes with its test
	failing := tc.StatesWhere(cond)
	if len(failing) == 0 {
		return 0, fmt.Errorf("spn: no marking satisfies the condition; MTTA infinite")
	}
	p0, err := tc.InitialDistribution()
	if err != nil {
		return 0, err
	}
	res, err := tc.Chain.Absorbing(p0, failing...)
	if err != nil {
		return 0, err
	}
	return res.MTTA, nil
}

// ReliabilityAt returns P(no marking satisfying failCond has been reached
// by time t) from the initial marking.
func (tc *TangibleChain) ReliabilityAt(t float64, failCond func(Marking) bool) (float64, error) { //numvet:allow unused-export delete: SPN transient measure; no binary reaches it, and it goes with its test
	failing := tc.StatesWhere(failCond)
	if len(failing) == 0 {
		return 1, nil
	}
	p0, err := tc.InitialDistribution()
	if err != nil {
		return 0, err
	}
	// Pick the (single) initial state when the mass is concentrated;
	// otherwise build a tiny two-step chain via the general curve per
	// initial state, weighting by p0.
	var total float64
	for i, p := range p0 {
		if p == 0 { //numvet:allow float-eq skipping exact zeros is a sparsity optimization
			continue
		}
		r, err := tc.Chain.ReliabilityAt(t, stateName(tc.Markings[i]), failing...)
		if err != nil {
			return 0, err
		}
		total += p * r
	}
	return total, nil
}
