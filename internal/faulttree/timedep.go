package faulttree

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// Time-dependent fault-tree analysis: when every basic event carries a
// lifetime distribution, the top event probability becomes a function of
// mission time, yielding the system unreliability curve and MTTF without
// any state-space construction (components remain independent and
// non-repairable).

// MTTF integrates the system survival function 1 - P(top at t) over
// [0, ∞). It requires every event to have a lifetime distribution and the
// system to fail eventually with probability 1 (otherwise the integral
// diverges and an error is returned).
func (t *Tree) MTTF() (float64, error) {
	for _, e := range t.events {
		if e.Lifetime == nil {
			return 0, fmt.Errorf("%w: %q", ErrNoLifetime, e.Name)
		}
	}
	var inner error
	val := linalg.IntegrateToInf(func(tau float64) float64 {
		p, err := t.TopAt(tau)
		if err != nil && inner == nil {
			inner = err
		}
		return 1 - p
	})
	if inner != nil {
		return 0, inner
	}
	if math.IsNaN(val) || val < 0 {
		return 0, fmt.Errorf("faulttree: MTTF integration produced %g", val)
	}
	// Divergence guard: if the survival probability does not approach 0,
	// the system never surely fails and the MTTF is infinite.
	pLate, err := t.TopAt(1e12)
	if err != nil {
		return 0, err
	}
	if 1-pLate > 1e-6 {
		return 0, fmt.Errorf("faulttree: system survives forever with probability %g; %w", 1-pLate, ErrInfiniteMTTF)
	}
	return val, nil
}
