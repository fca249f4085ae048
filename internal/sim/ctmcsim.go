package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/markov"
)

// CTMCPathSimulator draws sample paths of a CTMC and estimates transient
// and occupancy measures by replication, serving as the oracle for the
// uniformization solver.
type CTMCPathSimulator struct {
	chain  *markov.CTMC
	outs   [][]outgoing // adjacency: per-state outgoing transitions
	totals []float64    // per-state total exit rate
	names  []string
}

type outgoing struct {
	to   int
	rate float64
}

// NewCTMCPathSimulator prepares a simulator for the given chain.
func NewCTMCPathSimulator(c *markov.CTMC) (*CTMCPathSimulator, error) {
	q, err := c.Generator()
	if err != nil {
		return nil, err
	}
	n := q.Rows()
	s := &CTMCPathSimulator{
		chain:  c,
		outs:   make([][]outgoing, n),
		totals: make([]float64, n),
		names:  c.StateNames(),
	}
	for i := 0; i < n; i++ {
		q.RowRange(i, func(col int, val float64) {
			if col == i {
				return
			}
			s.outs[i] = append(s.outs[i], outgoing{to: col, rate: val})
			s.totals[i] += val
		})
	}
	return s, nil
}

// stateAt simulates one path from state `from` and returns the state index
// occupied at time t.
func (s *CTMCPathSimulator) stateAt(rng *rand.Rand, from int, t float64) int {
	now := 0.0
	state := from
	for { //numvet:allow unbounded-loop sojourn times are a.s. positive, so `now` passes any finite t
		total := s.totals[state]
		if total == 0 { //numvet:allow float-eq exactly-zero total rate marks an absorbing state
			return state // absorbing
		}
		now += rng.ExpFloat64() / total
		if now > t {
			return state
		}
		u := rng.Float64() * total
		for _, o := range s.outs[state] {
			if u < o.rate {
				state = o.to
				break
			}
			u -= o.rate
		}
	}
}

// EstimateTransientProb estimates P(X(t) ∈ states | X(0)=initial) from
// reps independent paths, returning a confidence interval.
func (s *CTMCPathSimulator) EstimateTransientProb(rng *rand.Rand, initial string, t float64, states []string, reps int, level float64) (CI, error) {
	from, err := s.chain.Index(initial)
	if err != nil {
		return CI{}, err
	}
	target := make(map[int]bool, len(states))
	for _, name := range states {
		i, err := s.chain.Index(name)
		if err != nil {
			return CI{}, err
		}
		target[i] = true
	}
	if reps < 2 {
		return CI{}, fmt.Errorf("sim: need at least 2 replications, got %d", reps)
	}
	var acc Accumulator
	for r := 0; r < reps; r++ {
		if target[s.stateAt(rng, from, t)] {
			acc.Add(1)
		} else {
			acc.Add(0)
		}
	}
	return acc.Interval(level), nil
}

// EstimateOccupancy estimates the expected fraction of [0, horizon] spent
// in the given states (interval availability) from reps paths.
func (s *CTMCPathSimulator) EstimateOccupancy(rng *rand.Rand, initial string, horizon float64, states []string, reps int, level float64) (CI, error) { //numvet:allow unused-export oracle: simulation, to check uniformization and MTTA
	from, err := s.chain.Index(initial)
	if err != nil {
		return CI{}, err
	}
	target := make(map[int]bool, len(states))
	for _, name := range states {
		i, err := s.chain.Index(name)
		if err != nil {
			return CI{}, err
		}
		target[i] = true
	}
	if reps < 2 {
		return CI{}, fmt.Errorf("sim: need at least 2 replications, got %d", reps)
	}
	var acc Accumulator
	for r := 0; r < reps; r++ {
		now := 0.0
		state := from
		inTarget := 0.0
		for now < horizon {
			total := s.totals[state]
			var dwell float64
			if total == 0 { //numvet:allow float-eq exactly-zero total rate marks an absorbing state
				dwell = horizon - now
			} else {
				dwell = rng.ExpFloat64() / total
				if now+dwell > horizon {
					dwell = horizon - now
				}
			}
			if target[state] {
				inTarget += dwell
			}
			now += dwell
			if now >= horizon || total == 0 { //numvet:allow float-eq exactly-zero total rate marks an absorbing state
				break
			}
			u := rng.Float64() * total
			for _, o := range s.outs[state] {
				if u < o.rate {
					state = o.to
					break
				}
				u -= o.rate
			}
		}
		acc.Add(inTarget / horizon)
	}
	return acc.Interval(level), nil
}

// EstimateMTTA estimates the mean time to reach any of the given absorbing
// states (capped at horizon, which must dominate the true MTTA for an
// unbiased estimate).
func (s *CTMCPathSimulator) EstimateMTTA(rng *rand.Rand, initial string, absorbing []string, horizon float64, reps int, level float64) (CI, error) { //numvet:allow unused-export oracle: simulation, to check uniformization and MTTA
	from, err := s.chain.Index(initial)
	if err != nil {
		return CI{}, err
	}
	target := make(map[int]bool, len(absorbing))
	for _, name := range absorbing {
		i, err := s.chain.Index(name)
		if err != nil {
			return CI{}, err
		}
		target[i] = true
	}
	if reps < 2 {
		return CI{}, fmt.Errorf("sim: need at least 2 replications, got %d", reps)
	}
	var acc Accumulator
	for r := 0; r < reps; r++ {
		now := 0.0
		state := from
		for !target[state] && now < horizon {
			total := s.totals[state]
			if total == 0 { //numvet:allow float-eq exactly-zero total rate marks an absorbing state
				break
			}
			now += rng.ExpFloat64() / total
			u := rng.Float64() * total
			for _, o := range s.outs[state] {
				if u < o.rate {
					state = o.to
					break
				}
				u -= o.rate
			}
		}
		acc.Add(now)
	}
	return acc.Interval(level), nil
}
