package markov

import (
	"fmt"
)

// Markov reward models attach a reward rate r(s) to every state; the
// resulting performability measures unify performance and dependability
// (Beaudry's degradable-capacity analysis, one of the tutorial's recurring
// themes): the expected reward rate at time t, the expected accumulated
// reward over [0, t], and the steady-state reward rate.

// RewardFunc maps a state name to its reward rate.
type RewardFunc func(state string) float64

// SteadyStateRewardRate returns lim_{t→∞} E[r(X(t))] = Σ_i π_i·r(i).
func (c *CTMC) SteadyStateRewardRate(reward RewardFunc) (float64, error) { //numvet:allow unused-export inventory: DESIGN row 8, reward measures
	if reward == nil {
		return 0, fmt.Errorf("markov: nil reward function")
	}
	pi, err := c.SteadyState()
	if err != nil {
		return 0, err
	}
	return c.ExpectedReward(pi, reward)
}

// ExpectedRewardAt returns E[r(X(t))] from the initial distribution p0.
func (c *CTMC) ExpectedRewardAt(t float64, p0 []float64, reward RewardFunc, opts TransientOptions) (float64, error) { //numvet:allow unused-export inventory: DESIGN row 8, reward measures
	if reward == nil {
		return 0, fmt.Errorf("markov: nil reward function")
	}
	p, err := c.Transient(t, p0, opts)
	if err != nil {
		return 0, err
	}
	return c.ExpectedReward(p, reward)
}

// AccumulatedReward returns E[∫₀ᵗ r(X(u)) du] from p0 — total work done by
// a degradable system over a mission, total energy consumed, etc.
func (c *CTMC) AccumulatedReward(t float64, p0 []float64, reward RewardFunc, opts TransientOptions) (float64, error) {
	if reward == nil {
		return 0, fmt.Errorf("markov: nil reward function")
	}
	occ, err := c.CumulativeTransient(t, p0, opts)
	if err != nil {
		return 0, err
	}
	var total float64
	for i, name := range c.names {
		total += occ[i] * reward(name)
	}
	return total, nil
}

// CapacityOrientedAvailability returns the ratio of expected accumulated
// reward over [0, t] to the full-capacity reward rate times t — the
// fraction of nominal work the degradable system actually delivers.
func (c *CTMC) CapacityOrientedAvailability(t float64, p0 []float64, reward RewardFunc, fullRate float64, opts TransientOptions) (float64, error) { //numvet:allow unused-export inventory: DESIGN row 8, reward measures
	if fullRate <= 0 {
		return 0, fmt.Errorf("markov: full-capacity rate %g must be positive", fullRate)
	}
	if t <= 0 {
		return 0, fmt.Errorf("markov: horizon %g must be positive", t)
	}
	acc, err := c.AccumulatedReward(t, p0, reward, opts)
	if err != nil {
		return 0, err
	}
	return acc / (fullRate * t), nil
}
