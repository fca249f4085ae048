// Package semimarkov implements semi-Markov processes (SMPs): an embedded
// discrete-time chain chooses successors while sojourn times follow
// arbitrary (non-exponential) distributions attached to each transition.
// Steady-state probabilities come from the Markov-renewal formula
// π_i = ν_i·h_i / Σ_j ν_j·h_j, and mean first-passage/absorption times from
// the linear system m_i = h_i + Σ_j p_ij·m_j.
//
// SMPs are the tutorial's first answer to non-exponential distributions:
// when the non-exponential behaviour is confined to sojourn times (no
// competing general timers), the SMP solves exactly what a CTMC cannot.
package semimarkov

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/linalg"
	"repro/internal/markov"
)

// SMP is a semi-Markov process under construction.
type SMP struct {
	names []string
	index map[string]int
	trans []kernelEntry
}

type kernelEntry struct {
	from, to int
	prob     float64
	sojourn  dist.Distribution
}

// Errors returned by SMP construction and analysis.
var (
	ErrUnknownState = errors.New("semimarkov: unknown state")
	ErrBadKernel    = errors.New("semimarkov: invalid kernel entry")
	ErrEmpty        = errors.New("semimarkov: no states")
)

// New returns an empty SMP.
func New() *SMP { //numvet:allow unused-export oracle: semi-Markov solver, to check a CTMC with exponential sojourns
	return &SMP{index: make(map[string]int)}
}

// State ensures a state exists and returns its index.
func (s *SMP) State(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	i := len(s.names)
	s.index[name] = i
	s.names = append(s.names, name)
	return i
}

// AddTransition declares that from state `from`, with probability prob the
// next state is `to` and the sojourn before the jump follows the given
// distribution. Outgoing probabilities of each state must sum to 1.
func (s *SMP) AddTransition(from, to string, prob float64, sojourn dist.Distribution) error { //numvet:allow unused-export oracle: part of the semi-Markov solver
	if prob <= 0 || prob > 1 || math.IsNaN(prob) {
		return fmt.Errorf("%w: prob %g for %q -> %q", ErrBadKernel, prob, from, to)
	}
	if sojourn == nil {
		return fmt.Errorf("%w: nil sojourn for %q -> %q", ErrBadKernel, from, to)
	}
	s.trans = append(s.trans, kernelEntry{from: s.State(from), to: s.State(to), prob: prob, sojourn: sojourn})
	return nil
}

// StateNames returns the state names in index order.
func (s *SMP) StateNames() []string { //numvet:allow unused-export oracle: part of the semi-Markov solver
	out := make([]string, len(s.names))
	copy(out, s.names)
	return out
}

// Index returns the index of a named state.
func (s *SMP) Index(name string) (int, error) {
	i, ok := s.index[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownState, name)
	}
	return i, nil
}

// validate checks row sums and returns per-state outgoing entries.
func (s *SMP) validate() ([][]kernelEntry, error) {
	if len(s.names) == 0 {
		return nil, ErrEmpty
	}
	out := make([][]kernelEntry, len(s.names))
	sums := make([]float64, len(s.names))
	for _, e := range s.trans {
		out[e.from] = append(out[e.from], e)
		sums[e.from] += e.prob
	}
	for i, sum := range sums {
		if len(out[i]) == 0 {
			continue // absorbing
		}
		if math.Abs(sum-1) > 1e-9 {
			return nil, fmt.Errorf("%w: state %q outgoing probabilities sum to %g",
				ErrBadKernel, s.names[i], sum)
		}
	}
	return out, nil
}

// meanSojourn returns h_i = Σ_j p_ij·E[H_ij] for each state (0 for
// absorbing states).
func (s *SMP) meanSojourn(out [][]kernelEntry) []float64 {
	h := make([]float64, len(s.names))
	for i, entries := range out {
		for _, e := range entries {
			h[i] += e.prob * e.sojourn.Mean()
		}
	}
	return h
}

// SteadyState returns the long-run fraction of time in each state for an
// irreducible SMP, by the Markov-renewal formula.
func (s *SMP) SteadyState() (map[string]float64, error) {
	out, err := s.validate()
	if err != nil {
		return nil, err
	}
	for i, entries := range out {
		if len(entries) == 0 {
			return nil, fmt.Errorf("semimarkov: state %q is absorbing; steady state undefined", s.names[i])
		}
	}
	// Embedded DTMC stationary vector.
	d := markov.NewDTMC()
	for _, name := range s.names {
		d.State(name)
	}
	for _, e := range s.trans {
		if err := d.AddProb(s.names[e.from], s.names[e.to], e.prob); err != nil {
			return nil, err
		}
	}
	nu, err := d.SteadyState()
	if err != nil {
		return nil, fmt.Errorf("semimarkov embedded chain: %w", err)
	}
	h := s.meanSojourn(out)
	w := make([]float64, len(nu))
	for i := range nu {
		w[i] = nu[i] * h[i]
	}
	if err := linalg.Normalize1(w); err != nil {
		return nil, fmt.Errorf("semimarkov: %w", err)
	}
	res := make(map[string]float64, len(w))
	for i, name := range s.names {
		res[name] = w[i]
	}
	return res, nil
}

// MeanTimeToAbsorption returns E[time to reach any of the named absorbing
// states] from the initial state, solving m = h + P_TT·m over the transient
// block.
func (s *SMP) MeanTimeToAbsorption(initial string, absorbing ...string) (float64, error) { //numvet:allow unused-export oracle: part of the semi-Markov solver
	out, err := s.validate()
	if err != nil {
		return 0, err
	}
	start, err := s.Index(initial)
	if err != nil {
		return 0, err
	}
	if len(absorbing) == 0 {
		return 0, fmt.Errorf("semimarkov: no absorbing states given")
	}
	isAbs := make(map[int]bool, len(absorbing))
	for _, name := range absorbing {
		i, err := s.Index(name)
		if err != nil {
			return 0, err
		}
		isAbs[i] = true
	}
	if isAbs[start] {
		return 0, nil
	}
	var transIdx []int
	pos := make(map[int]int)
	for i := range s.names {
		if !isAbs[i] {
			pos[i] = len(transIdx)
			transIdx = append(transIdx, i)
		}
	}
	nt := len(transIdx)
	h := s.meanSojourn(out)
	// (I - P_TT)·m = h_T.
	a := linalg.NewDense(nt, nt)
	b := make([]float64, nt)
	for _, gi := range transIdx {
		p := pos[gi]
		a.Set(p, p, 1)
		b[p] = h[gi]
		for _, e := range out[gi] {
			if !isAbs[e.to] {
				a.Add(p, pos[e.to], -e.prob)
			}
		}
	}
	m, err := linalg.LUSolve(a, b)
	if err != nil {
		return 0, fmt.Errorf("semimarkov MTTA: %w (absorption not certain?)", err)
	}
	return m[pos[start]], nil
}

// SteadyStateReward returns Σ_i π_i·r(i) for the long-run time-fraction
// vector π — e.g. cost rate of a maintenance policy whose sojourns are
// non-exponential.
func (s *SMP) SteadyStateReward(reward func(state string) float64) (float64, error) { //numvet:allow unused-export oracle: part of the semi-Markov solver
	if reward == nil {
		return 0, fmt.Errorf("semimarkov: nil reward function")
	}
	pi, err := s.SteadyState()
	if err != nil {
		return 0, err
	}
	// Sum in state order: pi is a map.
	var total float64
	for _, name := range s.names {
		total += pi[name] * reward(name)
	}
	return total, nil
}

// EmbeddedChain exposes the embedded DTMC (jump chain) for further
// analysis, e.g. absorption probabilities.
func (s *SMP) EmbeddedChain() (*markov.DTMC, error) { //numvet:allow unused-export inventory: DESIGN row 10, the embedded chain
	if _, err := s.validate(); err != nil {
		return nil, err
	}
	d := markov.NewDTMC()
	for _, name := range s.names {
		d.State(name)
	}
	for _, e := range s.trans {
		if err := d.AddProb(s.names[e.from], s.names[e.to], e.prob); err != nil {
			return nil, err
		}
	}
	return d, nil
}
