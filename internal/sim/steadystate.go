package sim

import (
	"fmt"
	"math/rand"
)

// Steady-state estimation by the method of batch means: one long CTMC
// path, a deleted warm-up prefix, and the remaining horizon split into
// batches whose means are treated as (approximately) independent
// observations. This gives the simulator a steady-state oracle to set
// against GTH/SOR, complementing the replication-based transient oracles.

// BatchMeansOptions tunes EstimateSteadyStateOccupancy.
type BatchMeansOptions struct {
	// Warmup is the simulated time discarded before measuring.
	Warmup float64
	// Batches is the number of batches (≥ 2; default 20).
	Batches int
	// BatchLength is the simulated time per batch.
	BatchLength float64
	// Level is the confidence level (default 0.95).
	Level float64
}

// EstimateSteadyStateOccupancy estimates the long-run fraction of time the
// chain spends in the given states from one long path.
func (s *CTMCPathSimulator) EstimateSteadyStateOccupancy(rng *rand.Rand, initial string, states []string, opts BatchMeansOptions) (CI, error) { //numvet:allow unused-export oracle: simulation, to check steady state
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
	if opts.Batches == 0 {
		opts.Batches = 20
	}
	if opts.Batches < 2 {
		return CI{}, fmt.Errorf("sim: need at least 2 batches, got %d", opts.Batches)
	}
	if opts.BatchLength <= 0 {
		return CI{}, fmt.Errorf("sim: batch length %g must be positive", opts.BatchLength)
	}
	if opts.Warmup < 0 {
		return CI{}, fmt.Errorf("sim: warmup %g negative", opts.Warmup)
	}
	if opts.Level == 0 { //numvet:allow float-eq zero means unset; option-default sentinel
		opts.Level = 0.95
	}

	state := from
	now := 0.0
	horizon := opts.Warmup + float64(opts.Batches)*opts.BatchLength
	var acc Accumulator
	batchEnd := opts.Warmup + opts.BatchLength
	var inTarget float64

	flushThrough := func(until float64, dwellEnd float64) {
		// Credit target time between now and min(dwellEnd, until); advance
		// batches as boundaries are crossed.
		for now < dwellEnd {
			segEnd := dwellEnd
			if segEnd > batchEnd {
				segEnd = batchEnd
			}
			if target[state] && segEnd > now && now >= opts.Warmup {
				inTarget += segEnd - now
			} else if target[state] && segEnd > opts.Warmup && now < opts.Warmup {
				inTarget += segEnd - opts.Warmup
			}
			now = segEnd
			if now >= batchEnd && batchEnd <= until {
				acc.Add(inTarget / opts.BatchLength)
				inTarget = 0
				batchEnd += opts.BatchLength
			}
			if now >= until {
				return
			}
		}
	}

	for now < horizon {
		total := s.totals[state]
		var dwell float64
		if total == 0 { //numvet:allow float-eq exactly-zero total rate marks an absorbing state
			dwell = horizon - now
		} else {
			dwell = rng.ExpFloat64() / total
		}
		dwellEnd := now + dwell
		if dwellEnd > horizon {
			dwellEnd = horizon
		}
		flushThrough(horizon, dwellEnd)
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
	if acc.N() < 2 {
		return CI{}, fmt.Errorf("sim: only %d complete batches collected", acc.N())
	}
	return acc.Interval(opts.Level), nil
}
