package bdd

import (
	"errors"
	"fmt"
)

// ErrBadProb reports a variable probability outside [0,1]. Prob's error
// ends with it: "bdd prob: p[0]=2 outside [0,1]".
var ErrBadProb = errors.New("outside [0,1]")

// Prob computes Pr[f = 1] given independent variable probabilities
// p[i] = Pr[var i = 1], by a memoized Shannon expansion over the BDD
// (Rauzy's bottom-up algorithm). Complexity is linear in the BDD size.
// The memo is scratch space on the Manager, reused across calls, so Prob
// writes to the Manager even though it adds no nodes.
func (m *Manager) Prob(f Ref, p []float64) (float64, error) {
	if len(p) != m.nvars {
		return 0, fmt.Errorf("bdd prob: %d probabilities for %d variables", len(p), m.nvars)
	}
	for i, pi := range p {
		if pi < 0 || pi > 1 {
			return 0, fmt.Errorf("bdd prob: p[%d]=%g %w", i, pi, ErrBadProb)
		}
	}
	if len(m.probMemo) < len(m.nodes) {
		// Size to the node table's capacity, so the memo grows only when
		// the table itself reallocates.
		m.probMemo = make([]float64, cap(m.nodes))
		m.probGen = make([]uint32, cap(m.nodes))
		m.probStamp = 0
	}
	m.probStamp++
	if m.probStamp == 0 {
		// The generation counter wrapped: stamps from 2³² calls ago
		// would read as current.
		clear(m.probGen)
		m.probStamp = 1
	}
	return m.prob(f, p), nil
}

// prob is Prob's recursion; a node's memo entry is valid when its stamp
// equals the current call's.
func (m *Manager) prob(r Ref, p []float64) float64 {
	switch r {
	case False:
		return 0
	case True:
		return 1
	}
	if m.probGen[r] == m.probStamp {
		return m.probMemo[r]
	}
	n := m.nodes[r]
	pi := p[n.level]
	v := (1-pi)*m.prob(n.low, p) + pi*m.prob(n.high, p)
	m.probMemo[r] = v
	m.probGen[r] = m.probStamp
	return v
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
