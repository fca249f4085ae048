package faulttree

import (
	"fmt"
	"strconv"

	"repro/internal/dist"
	"repro/internal/markov"
)

// Bridge to the state-space world: a coherent fault tree whose basic
// events have exponential lifetimes (and repair rates) expands into the
// CTMC over event-status bitmasks. The expansion buys the measures the
// non-state-space solution cannot produce — above all the system MTTF
// *with component repair* (components are fixed while the system is still
// up, so the first system failure is a first-passage problem) — at the
// price the tutorial warns about: 2^n states.

// maxBridgeEvents caps the expansion (2^12 = 4096 states keeps the dense
// first-passage solve comfortable).
const maxBridgeEvents = 12

// AvailabilityChain holds the expanded CTMC and its metadata.
type AvailabilityChain struct {
	// Chain is the 2^n-state CTMC; state names are bitmask integers in
	// decimal ("0" = all events good).
	Chain *markov.CTMC
	// UpStates lists states where the top event has NOT occurred.
	UpStates []string
	// DownStates lists the complement.
	DownStates []string
	tree       *Tree
}

// ToCTMC expands the tree. Every event needs an exponential lifetime;
// repairRate supplies each event's repair rate (return 0 for
// non-repairable events).
func (t *Tree) ToCTMC(repairRate func(*Event) float64) (*AvailabilityChain, error) { //numvet:allow unused-export oracle: the repairable CTMC of a tree, to check the BDD top event
	if !t.coherent {
		return nil, ErrNonCoherent
	}
	n := len(t.events)
	if n > maxBridgeEvents {
		return nil, fmt.Errorf("faulttree: %d events exceed the %d-event state-space cap (2^n states)",
			n, maxBridgeEvents)
	}
	lams := make([]float64, n)
	mus := make([]float64, n)
	for i, e := range t.events {
		exp, ok := e.Lifetime.(dist.Exponential)
		if !ok {
			return nil, fmt.Errorf("faulttree: event %q lifetime %v is not exponential (use phfit to expand first)",
				e.Name, e.Lifetime)
		}
		lams[i] = exp.Rate()
		if repairRate != nil {
			mu := repairRate(e)
			if mu < 0 {
				return nil, fmt.Errorf("faulttree: negative repair rate %g for %q", mu, e.Name)
			}
			mus[i] = mu
		}
	}
	c := markov.NewCTMC()
	name := func(mask int) string { return strconv.Itoa(mask) }
	ac := &AvailabilityChain{Chain: c, tree: t}
	probe := make([]float64, n)
	topOccurred := func(mask int) (bool, error) {
		for i := range probe {
			if mask&(1<<i) != 0 {
				probe[i] = 1
			} else {
				probe[i] = 0
			}
		}
		p, err := t.mgr.Prob(t.top, probe)
		if err != nil {
			return false, err
		}
		return p > 0.5, nil
	}
	for mask := 0; mask < 1<<n; mask++ {
		c.State(name(mask))
		down, err := topOccurred(mask)
		if err != nil {
			return nil, err
		}
		if down {
			ac.DownStates = append(ac.DownStates, name(mask))
		} else {
			ac.UpStates = append(ac.UpStates, name(mask))
		}
		for i := 0; i < n; i++ {
			if mask&(1<<i) == 0 {
				if err := c.AddRate(name(mask), name(mask|1<<i), lams[i]); err != nil {
					return nil, err
				}
			} else if mus[i] > 0 {
				if err := c.AddRate(name(mask), name(mask&^(1<<i)), mus[i]); err != nil {
					return nil, err
				}
			}
		}
	}
	return ac, nil
}

// Availability returns the steady-state probability that the top event has
// not occurred (requires every event repairable for a meaningful long-run
// value).
func (ac *AvailabilityChain) Availability() (float64, error) { //numvet:allow unused-export oracle: steady state of the ToCTMC chain
	pi, err := ac.Chain.SteadyState()
	if err != nil {
		return 0, err
	}
	return ac.Chain.ProbSum(pi, ac.UpStates...)
}

// MTTF returns the mean time to the first top-event occurrence from the
// all-good state, treating every down state as absorbing. With repair
// rates supplied to ToCTMC, component repairs while the system is up
// extend this first-passage time — the measure that forces the state-space
// treatment.
func (ac *AvailabilityChain) MTTF() (float64, error) { //numvet:allow unused-export oracle: first passage of the ToCTMC chain
	if len(ac.DownStates) == 0 {
		return 0, fmt.Errorf("faulttree: top event unreachable; %w", ErrInfiniteMTTF)
	}
	p0, err := ac.Chain.InitialAt("0")
	if err != nil {
		return 0, err
	}
	res, err := ac.Chain.Absorbing(p0, ac.DownStates...)
	if err != nil {
		return 0, err
	}
	return res.MTTA, nil
}
