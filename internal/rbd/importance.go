package rbd

import (
	"fmt"
)

// FullImportance extends Importance with the Fussell–Vesely measure and is
// evaluated against arbitrary per-component unreliabilities, so it serves
// both mission-time (reliability) and steady-state (availability) studies.
type FullImportance struct {
	Component string
	// Birnbaum is ∂R_sys/∂R_i.
	Birnbaum float64
	// Criticality is Birnbaum·q_i/Q_sys.
	Criticality float64
	// FussellVesely approximates P(some cut containing i is failed |
	// system failed) by the rare-event quotient over minimal cut sets.
	FussellVesely float64
}

// ImportanceWith computes all importance measures with component
// unreliability supplied by q (probability the component is DOWN).
func (m *Model) ImportanceWith(q func(*Component) float64) ([]FullImportance, error) {
	p := make([]float64, len(m.comps))
	for i, c := range m.comps {
		qi := q(c)
		if qi < 0 || qi > 1 {
			return nil, fmt.Errorf("rbd: unreliability %g for %q outside [0,1]", qi, c.Name)
		}
		p[i] = 1 - qi
	}
	sysR, err := m.mgr.Prob(m.success, p)
	if err != nil {
		return nil, err
	}
	sysQ := 1 - sysR
	// Fussell–Vesely numerators from the failure-side minimal cut sets.
	fvNum := make([]float64, len(m.comps))
	for _, cut := range m.dualMgr.MinimalCutSets(m.failure) {
		prod := 1.0
		for _, v := range cut {
			prod *= 1 - p[v]
		}
		for _, v := range cut {
			fvNum[v] += prod
		}
	}
	out := make([]FullImportance, len(m.comps))
	for i, c := range m.comps {
		b, err := m.mgr.Birnbaum(m.success, p, i)
		if err != nil {
			return nil, err
		}
		fi := FullImportance{Component: c.Name, Birnbaum: b}
		if sysQ > 0 {
			fi.Criticality = b * (1 - p[i]) / sysQ
			fv := fvNum[i] / sysQ
			if fv > 1 {
				fv = 1
			}
			fi.FussellVesely = fv
		}
		out[i] = fi
	}
	return out, nil
}

// AvailabilityImportance evaluates the importance measures at each
// component's steady-state unavailability MTTR/(MTTF+MTTR); this is the
// ranking used to direct design effort in availability studies (which
// component's improvement buys the most system uptime).
func (m *Model) AvailabilityImportance() ([]FullImportance, error) { //numvet:allow unused-export delete: importance variant; no binary reaches it, and it goes with ImportanceWith and their five tests
	return m.ImportanceWith(func(c *Component) float64 {
		if c.Repair == nil {
			// No repair: treat as eventually-down only for mission-style
			// studies; availability importance requires repair.
			return 1
		}
		mttf := c.Lifetime.Mean()
		mttr := c.Repair.Mean()
		return mttr / (mttf + mttr)
	})
}

// MissionImportance evaluates the importance measures at mission time t
// with no repair (unreliability F_i(t)).
func (m *Model) MissionImportance(t float64) ([]FullImportance, error) { //numvet:allow unused-export delete: importance variant; no binary reaches it, and it goes with ImportanceWith and their five tests
	return m.ImportanceWith(func(c *Component) float64 {
		return c.Lifetime.CDF(t)
	})
}

// UnavailabilityContribution returns, per component, the system
// unavailability reduction from making that component perfect (q_i = 0) —
// the "what if we fixed X completely" ranking used in the tutorial's
// industrial studies.
func (m *Model) UnavailabilityContribution() (map[string]float64, error) { //numvet:allow unused-export delete: importance variant; no binary reaches it, and it goes with ImportanceWith and their five tests
	baseQ, err := m.systemUnavailability(nil)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(m.comps))
	for _, c := range m.comps {
		perfect := c
		q, err := m.systemUnavailability(perfect)
		if err != nil {
			return nil, err
		}
		out[c.Name] = baseQ - q
	}
	return out, nil
}

// systemUnavailability computes 1 - availability, optionally treating one
// component as perfect.
func (m *Model) systemUnavailability(perfect *Component) (float64, error) {
	a, err := m.Probability2(func(c *Component) (float64, error) {
		if c == perfect {
			return 1, nil
		}
		if c.Repair == nil {
			return 0, fmt.Errorf("%w: %q", ErrNoRepair, c.Name)
		}
		mttf := c.Lifetime.Mean()
		mttr := c.Repair.Mean()
		return mttf / (mttf + mttr), nil
	})
	if err != nil {
		return 0, err
	}
	return 1 - a, nil
}
