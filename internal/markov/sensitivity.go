package markov

import (
	"fmt"

	"repro/internal/linalg"
)

// SteadyStateSensitivity computes dπ/dθ for a parameter θ, given the
// derivative of each transition rate with respect to θ (dRate, returning 0
// for rates that do not depend on θ). It solves the augmented system
//
//	dπ·Q = -π·dQ,   Σ_i dπ_i = 0,
//
// densely (sensitivity analysis is typically run on the small chains used
// for design exploration). The result is keyed by state name.
//
// Parametric sensitivities are the gradient half of the tutorial's
// "parametric uncertainty" story: they identify which input rates dominate
// the output measure.
func (c *CTMC) SteadyStateSensitivity(dRate func(from, to string) float64) (map[string]float64, error) {
	n := len(c.names)
	if n == 0 {
		return nil, ErrEmptyChain
	}
	pi, err := c.SteadyState()
	if err != nil {
		return nil, err
	}
	// Build dQ densely.
	dq := linalg.NewDense(n, n)
	for k := range c.from {
		t := c.edge(k)
		d := dRate(c.names[t.from], c.names[t.to])
		if d != 0 { //numvet:allow float-eq structurally-zero derivative entries are omitted
			dq.Add(t.from, t.to, d)
			dq.Add(t.from, t.from, -d)
		}
	}
	// rhs_j = -(π·dQ)_j
	piDQ, err := dq.VecMul(pi)
	if err != nil {
		return nil, err
	}
	// Unknown x = dπ satisfies x·Q = -π·dQ with Σx = 0. Write as
	// Aᵀ·x = b where A stacks Q columns with one column replaced by the
	// normalization constraint (Q is rank n-1).
	qg, err := c.Generator()
	if err != nil {
		return nil, err
	}
	qd := qg.ToDense()
	a := linalg.NewDense(n, n)
	b := make([]float64, n)
	for j := 0; j < n; j++ {
		if j == n-1 {
			// Normalization row: Σ_i x_i = 0.
			for i := 0; i < n; i++ {
				a.Set(j, i, 1)
			}
			b[j] = 0
			continue
		}
		// Equation j: Σ_i x_i·Q(i,j) = -piDQ[j].
		for i := 0; i < n; i++ {
			a.Set(j, i, qd.At(i, j))
		}
		b[j] = -piDQ[j]
	}
	x, err := linalg.LUSolve(a, b)
	if err != nil {
		return nil, fmt.Errorf("markov sensitivity: %w", err)
	}
	out := make(map[string]float64, n)
	for i, name := range c.names {
		out[name] = x[i]
	}
	return out, nil
}

// MeasureSensitivity returns d(Σ_{s∈S} π_s)/dθ for a set of states S,
// composing SteadyStateSensitivity.
func (c *CTMC) MeasureSensitivity(states []string, dRate func(from, to string) float64) (float64, error) { //numvet:allow unused-export inventory: DESIGN row 8, parametric sensitivity
	dpi, err := c.SteadyStateSensitivity(dRate)
	if err != nil {
		return 0, err
	}
	var s float64
	for _, name := range states {
		v, ok := dpi[name]
		if !ok {
			return 0, fmt.Errorf("%w: %q", ErrUnknownState, name)
		}
		s += v
	}
	return s, nil
}
