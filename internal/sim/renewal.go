package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/dist"
)

// ComponentProcess describes one independently failing and repairing
// component as an alternating renewal process.
type ComponentProcess struct {
	// Name identifies the component.
	Name string
	// Lifetime is the up-period distribution (required).
	Lifetime dist.Distribution
	// Repair is the down-period distribution; nil means no repair (the
	// component stays down after its first failure).
	Repair dist.Distribution
}

// SystemSimulator estimates system-level availability/reliability measures
// by simulating the component processes on the event engine and evaluating
// a user-supplied structure function over the component up/down vector.
type SystemSimulator struct {
	comps []ComponentProcess
	// structure returns true (system up) given component up-flags in the
	// order the components were supplied.
	structure func(up []bool) bool
}

// NewSystemSimulator validates inputs and returns a simulator.
func NewSystemSimulator(comps []ComponentProcess, structure func(up []bool) bool) (*SystemSimulator, error) { //numvet:allow unused-export oracle: simulation, to check the analytic solvers
	if len(comps) == 0 {
		return nil, fmt.Errorf("sim: no components")
	}
	if structure == nil {
		return nil, fmt.Errorf("sim: nil structure function")
	}
	for i, c := range comps {
		if c.Lifetime == nil {
			return nil, fmt.Errorf("sim: component %d (%s) has no lifetime", i, c.Name)
		}
	}
	out := &SystemSimulator{comps: append([]ComponentProcess(nil), comps...), structure: structure}
	return out, nil
}

// simulateOnce runs one replication over [0, horizon] and returns the system
// uptime within the horizon and whether the system was up at the horizon.
func (s *SystemSimulator) simulateOnce(rng *rand.Rand, horizon float64) (uptime float64, upAtEnd bool, firstFailure float64) {
	eng := NewEngine()
	up := make([]bool, len(s.comps))
	for i := range up {
		up[i] = true
	}
	sysUp := s.structure(up)
	lastChange := 0.0
	firstFailure = horizon
	seenFailure := false

	var schedule func(i int)
	schedule = func(i int) {
		c := s.comps[i]
		life := c.Lifetime.Rand(rng)
		_ = eng.Schedule(life, func() {
			up[i] = false
			s.onChange(eng, up, &sysUp, &lastChange, &uptime, &firstFailure, &seenFailure)
			if c.Repair != nil {
				rep := c.Repair.Rand(rng)
				_ = eng.Schedule(rep, func() {
					up[i] = true
					s.onChange(eng, up, &sysUp, &lastChange, &uptime, &firstFailure, &seenFailure)
					schedule(i)
				})
			}
		})
	}
	for i := range s.comps {
		schedule(i)
	}
	eng.Run(horizon)
	if sysUp {
		uptime += horizon - lastChange
	}
	return uptime, sysUp, firstFailure
}

func (s *SystemSimulator) onChange(eng *Engine, up []bool, sysUp *bool, lastChange, uptime, firstFailure *float64, seenFailure *bool) {
	now := eng.Now()
	newUp := s.structure(up)
	if newUp == *sysUp {
		return
	}
	if *sysUp {
		*uptime += now - *lastChange
		if !*seenFailure {
			*firstFailure = now
			*seenFailure = true
		}
	}
	*sysUp = newUp
	*lastChange = now
}

// EstimateIntervalAvailability returns a CI on the expected fraction of
// [0, horizon] the system is up.
func (s *SystemSimulator) EstimateIntervalAvailability(rng *rand.Rand, horizon float64, reps int, level float64) (CI, error) { //numvet:allow unused-export oracle: simulation, to check the analytic solvers
	if reps < 2 {
		return CI{}, fmt.Errorf("sim: need at least 2 replications, got %d", reps)
	}
	var acc Accumulator
	for r := 0; r < reps; r++ {
		uptime, _, _ := s.simulateOnce(rng, horizon)
		acc.Add(uptime / horizon)
	}
	return acc.Interval(level), nil
}

// EstimatePointAvailability returns a CI on P(system up at time t).
func (s *SystemSimulator) EstimatePointAvailability(rng *rand.Rand, t float64, reps int, level float64) (CI, error) { //numvet:allow unused-export oracle: simulation, to check the analytic solvers
	if reps < 2 {
		return CI{}, fmt.Errorf("sim: need at least 2 replications, got %d", reps)
	}
	var acc Accumulator
	for r := 0; r < reps; r++ {
		_, upAtEnd, _ := s.simulateOnce(rng, t)
		if upAtEnd {
			acc.Add(1)
		} else {
			acc.Add(0)
		}
	}
	return acc.Interval(level), nil
}

// EstimateReliability returns a CI on P(no system failure during [0, t])
// (meaningful for non-repairable systems or as mission reliability for
// repairable ones).
func (s *SystemSimulator) EstimateReliability(rng *rand.Rand, t float64, reps int, level float64) (CI, error) { //numvet:allow unused-export oracle: simulation, to check the analytic solvers
	if reps < 2 {
		return CI{}, fmt.Errorf("sim: need at least 2 replications, got %d", reps)
	}
	var acc Accumulator
	for r := 0; r < reps; r++ {
		_, _, firstFailure := s.simulateOnce(rng, t)
		if firstFailure >= t {
			acc.Add(1)
		} else {
			acc.Add(0)
		}
	}
	return acc.Interval(level), nil
}

// EstimateMTTF returns a CI on the mean time to first system failure,
// simulating up to horizon per replication (horizon must comfortably exceed
// the true MTTF for an unbiased estimate).
func (s *SystemSimulator) EstimateMTTF(rng *rand.Rand, horizon float64, reps int, level float64) (CI, error) { //numvet:allow unused-export oracle: simulation, to check the analytic solvers
	if reps < 2 {
		return CI{}, fmt.Errorf("sim: need at least 2 replications, got %d", reps)
	}
	var acc Accumulator
	for r := 0; r < reps; r++ {
		_, _, firstFailure := s.simulateOnce(rng, horizon)
		acc.Add(firstFailure)
	}
	return acc.Interval(level), nil
}
