package markov

import (
	"fmt"
)

// System reliability from a CTMC: R(t) = P(the chain has not entered a
// failure state by time t). The failure states are made absorbing (their
// outgoing transitions dropped), so R(t) is the survival function of the
// first-passage time — the dependability twin of the availability
// transients elsewhere in this package.

// ReliabilityCurve evaluates R(t) on a grid of times.
func (c *CTMC) ReliabilityCurve(times []float64, initial string, failures ...string) ([]float64, error) { //numvet:allow unused-export oracle: R(t) by uniformization, whose integral checks the served mtta
	if len(failures) == 0 {
		return nil, fmt.Errorf("markov reliability: no failure states given")
	}
	isFail := make(map[int]bool, len(failures))
	for _, name := range failures {
		i, err := c.Index(name)
		if err != nil {
			return nil, err
		}
		isFail[i] = true
	}
	// Build the absorbing copy: failure states keep no outgoing rates.
	abs := NewCTMC()
	for _, name := range c.names {
		abs.State(name)
	}
	for k := range c.from {
		tr := c.edge(k)
		if isFail[tr.from] {
			continue
		}
		if err := abs.AddRate(c.names[tr.from], c.names[tr.to], tr.rate); err != nil {
			return nil, err
		}
	}
	p0, err := abs.InitialAt(initial)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(times))
	for k, t := range times {
		p, err := abs.Transient(t, p0, TransientOptions{})
		if err != nil {
			return nil, err
		}
		var failed float64
		for i := range p {
			if isFail[i] {
				failed += p[i]
			}
		}
		r := 1 - failed
		if r < 0 {
			r = 0
		}
		out[k] = r
	}
	return out, nil
}
