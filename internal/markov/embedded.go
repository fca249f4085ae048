package markov

import (
	"fmt"

	"repro/internal/linalg"
)

// EmbeddedDTMC returns the jump chain of the CTMC: P(i,j) = q(i,j)/|q(i,i)|
// for i ≠ j. States with no outgoing rate become absorbing (self-loop 1).
// The embedded chain drives semi-Markov constructions and visit-count
// analyses.
func (c *CTMC) EmbeddedDTMC() (*DTMC, error) {
	if len(c.names) == 0 {
		return nil, ErrEmptyChain
	}
	totals := make([]float64, len(c.names))
	for _, t := range c.trans {
		totals[t.from] += t.rate
	}
	d := NewDTMC()
	for _, name := range c.names {
		d.State(name)
	}
	for _, t := range c.trans {
		if err := d.AddProb(c.names[t.from], c.names[t.to], t.rate/totals[t.from]); err != nil {
			return nil, err
		}
	}
	for i, total := range totals {
		if total == 0 { //numvet:allow float-eq exactly-zero exit rate marks an absorbing state
			if err := d.AddProb(c.names[i], c.names[i], 1); err != nil {
				return nil, err
			}
		}
	}
	return d, nil
}

// ExpectedVisits returns, for a chain with the named absorbing states, the
// expected number of visits to every transient state before absorption,
// starting from the given state (the fundamental-matrix row of the
// embedded chain).
func (c *CTMC) ExpectedVisits(initial string, absorbing ...string) (map[string]float64, error) {
	d, err := c.EmbeddedDTMC()
	if err != nil {
		return nil, err
	}
	return d.ExpectedVisits(initial, absorbing...)
}

// ExpectedVisits returns the expected visit counts to transient states
// before absorption: the row of N = (I - Q)^{-1} for the initial state.
func (d *DTMC) ExpectedVisits(initial string, absorbing ...string) (map[string]float64, error) {
	start, err := d.Index(initial)
	if err != nil {
		return nil, err
	}
	if len(absorbing) == 0 {
		return nil, fmt.Errorf("markov dtmc: no absorbing states given")
	}
	isAbs := make(map[int]bool, len(absorbing))
	for _, name := range absorbing {
		i, err := d.Index(name)
		if err != nil {
			return nil, err
		}
		isAbs[i] = true
	}
	out := make(map[string]float64)
	if isAbs[start] {
		return out, nil
	}
	var transIdx []int
	pos := make(map[int]int)
	for i := range d.names {
		if !isAbs[i] {
			pos[i] = len(transIdx)
			transIdx = append(transIdx, i)
		}
	}
	nt := len(transIdx)
	// Solve nᵀ·(I - Q) = e_startᵀ, i.e. (I - Q)ᵀ·n = e_start.
	a := linalg.NewDense(nt, nt)
	for i := 0; i < nt; i++ {
		a.Set(i, i, 1)
	}
	for _, t := range d.trans {
		if isAbs[t.from] || isAbs[t.to] {
			continue
		}
		// (I-Q)ᵀ entry (to, from) -= p.
		a.Add(pos[t.to], pos[t.from], -t.rate)
	}
	b := make([]float64, nt)
	b[pos[start]] = 1
	n, err := linalg.LUSolve(a, b)
	if err != nil {
		return nil, fmt.Errorf("markov dtmc visits: %w", err)
	}
	for _, gi := range transIdx {
		out[d.names[gi]] = n[pos[gi]]
	}
	return out, nil
}

// MeanStepsToAbsorption returns the expected number of jumps before
// absorption from the initial state (the sum of expected visits).
func (d *DTMC) MeanStepsToAbsorption(initial string, absorbing ...string) (float64, error) {
	visits, err := d.ExpectedVisits(initial, absorbing...)
	if err != nil {
		return 0, err
	}
	// Sum in state-index order: visits is a map.
	var total float64
	for _, name := range d.names {
		total += visits[name]
	}
	return total, nil
}
