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

// CurvePoint is one (time, probability) sample of the top-event curve.
type CurvePoint struct {
	Time float64
	Prob float64
}

// TopCurve evaluates the top-event probability at each requested time.
func (t *Tree) TopCurve(times []float64) ([]CurvePoint, error) {
	out := make([]CurvePoint, len(times))
	for i, tau := range times {
		if tau < 0 || math.IsNaN(tau) {
			return nil, fmt.Errorf("faulttree: bad curve time %g", tau)
		}
		p, err := t.TopAt(tau)
		if err != nil {
			return nil, err
		}
		out[i] = CurvePoint{Time: tau, Prob: p}
	}
	return out, nil
}

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
		return 0, fmt.Errorf("faulttree: system survives forever with probability %g; MTTF infinite", 1-pLate)
	}
	return val, nil
}

// BirnbaumCurve evaluates the Birnbaum importance of one event across
// mission times — the basis of time-phased maintenance prioritization.
func (t *Tree) BirnbaumCurve(eventName string, times []float64) ([]CurvePoint, error) {
	var idx = -1
	for i, e := range t.events {
		if e.Name == eventName {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("faulttree: unknown event %q", eventName)
	}
	out := make([]CurvePoint, len(times))
	for k, tau := range times {
		p := make([]float64, len(t.events))
		for i, e := range t.events {
			if e.Lifetime == nil {
				return nil, fmt.Errorf("%w: %q", ErrNoLifetime, e.Name)
			}
			p[i] = e.Lifetime.CDF(tau)
		}
		b, err := t.mgr.Birnbaum(t.top, p, idx)
		if err != nil {
			return nil, err
		}
		out[k] = CurvePoint{Time: tau, Prob: b}
	}
	return out, nil
}
