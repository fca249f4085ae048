package bdd

import (
	"errors"
	"fmt"
)

// ErrBadProb reports a variable probability outside [0,1]. Prob's error
// ends with it: "bdd prob: p[0]=2 outside [0,1]".
var ErrBadProb = errors.New("outside [0,1]")

// Prob computes Pr[f = 1] given independent variable probabilities
// p[i] = Pr[var i = 1] by Shannon expansion over the BDD (Rauzy's
// algorithm): one bottom-up pass over the nodes reachable from f, so the
// cost is linear in the BDD size. The pass order is cached per root and
// its scratch values are kept on the Manager, so Prob writes to the
// Manager even though it adds no nodes.
func (m *Manager) Prob(f Ref, p []float64) (float64, error) {
	if len(p) != m.nvars {
		return 0, fmt.Errorf("bdd prob: %d probabilities for %d variables", len(p), m.nvars)
	}
	for i, pi := range p {
		if pi < 0 || pi > 1 {
			return 0, fmt.Errorf("bdd prob: p[%d]=%g %w", i, pi, ErrBadProb)
		}
	}
	ord := m.order(f)
	if len(m.vals) < len(m.nodes) {
		// Size to the node table's capacity, so the scratch grows only
		// when the table itself reallocates.
		m.vals = make([]float64, cap(m.nodes))
	}
	vals := m.vals
	vals[False], vals[True] = 0, 1
	for _, r := range ord {
		n := m.nodes[r]
		pi := p[n.level]
		vals[r] = (1-pi)*vals[n.low] + pi*vals[n.high]
	}
	return vals[f], nil
}

// Birnbaum computes the Birnbaum importance of variable v for function f:
// Pr[f | x_v = 1] - Pr[f | x_v = 0], the partial derivative of the system
// probability with respect to the component probability.
func (m *Manager) Birnbaum(f Ref, p []float64, v int) (float64, error) {
	f1, err := m.Restrict(f, v, true)
	if err != nil {
		return 0, err
	}
	f0, err := m.Restrict(f, v, false)
	if err != nil {
		return 0, err
	}
	p1, err := m.Prob(f1, p)
	if err != nil {
		return 0, err
	}
	p0, err := m.Prob(f0, p)
	if err != nil {
		return 0, err
	}
	return p1 - p0, nil
}
