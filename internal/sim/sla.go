package sim

import (
	"fmt"
	"math/rand"
	"sort"
)

// SLA-style measures: beyond the *expected* interval availability, service
// agreements care about the *distribution* of the delivered availability
// over a billing window — P(window availability < SLA) is the breach
// probability. These estimators return the empirical distribution over
// replications.

// AvailabilitySample summarizes the distribution of per-window interval
// availability across replications.
type AvailabilitySample struct {
	// Fractions holds the sorted per-replication availability fractions.
	Fractions []float64
	// Mean is the sample mean (the classic interval availability).
	Mean float64
}

// Quantile returns the q-quantile (0 < q < 1) of the window availability.
func (a *AvailabilitySample) Quantile(q float64) (float64, error) { //numvet:allow unused-export delete: SLA sampling; no binary reaches it, and it goes with its four tests
	if len(a.Fractions) == 0 {
		return 0, fmt.Errorf("sim: empty availability sample")
	}
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("sim: quantile %g outside (0,1)", q)
	}
	idx := int(q * float64(len(a.Fractions)))
	if idx >= len(a.Fractions) {
		idx = len(a.Fractions) - 1
	}
	return a.Fractions[idx], nil
}

// BreachProbability returns the fraction of windows whose availability
// fell below the SLA target.
func (a *AvailabilitySample) BreachProbability(sla float64) float64 { //numvet:allow unused-export delete: SLA sampling; no binary reaches it, and it goes with its four tests
	// Fractions sorted ascending: count entries < sla.
	idx := sort.SearchFloat64s(a.Fractions, sla)
	return float64(idx) / float64(len(a.Fractions))
}

// SampleIntervalAvailability simulates reps independent windows of the
// given length and returns the distribution of delivered availability.
func (s *SystemSimulator) SampleIntervalAvailability(rng *rand.Rand, window float64, reps int) (*AvailabilitySample, error) { //numvet:allow unused-export delete: SLA sampling; no binary reaches it, and it goes with its four tests
	if reps < 2 {
		return nil, fmt.Errorf("sim: need at least 2 replications, got %d", reps)
	}
	if window <= 0 {
		return nil, fmt.Errorf("sim: window %g must be positive", window)
	}
	out := &AvailabilitySample{Fractions: make([]float64, 0, reps)}
	var sum float64
	for r := 0; r < reps; r++ {
		uptime, _, _ := s.simulateOnce(rng, window)
		f := uptime / window
		out.Fractions = append(out.Fractions, f)
		sum += f
	}
	sort.Float64s(out.Fractions)
	out.Mean = sum / float64(reps)
	return out, nil
}
