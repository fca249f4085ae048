// Package mrgp implements Markov regenerative processes for the
// state-local deterministic subclass (the DSPN-style models used in the
// tutorial's software-rejuvenation examples): every state has exponential
// outgoing transitions, and some states additionally carry a deterministic
// timeout that fires after a fixed delay unless an exponential transition
// wins the race. The clock is local to the state — entering the state
// starts it, leaving the state cancels it — so every state change is a
// regeneration point and the process is solved exactly through its embedded
// Markov renewal sequence:
//
//	P(det fires first)        = e^{-Λ_i d_i}
//	P(exp j fires first)      = (q_ij/Λ_i)·(1 - e^{-Λ_i d_i})
//	E[sojourn in i]           = (1 - e^{-Λ_i d_i})/Λ_i
//
// where Λ_i is the total exponential rate out of i. States with no
// deterministic timeout reduce to ordinary CTMC states. Timeouts with an
// infinite-rate race (Λ_i = 0) sojourn exactly d_i.
//
// This subclass covers deterministic rejuvenation intervals, watchdog
// timeouts, and periodic maintenance — the non-exponential timing patterns
// the tutorial's industrial examples actually use — while remaining exactly
// solvable without transient integration of a subordinated process.
package mrgp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/markov"
)

// Process is an MRGP under construction.
type Process struct {
	names []string
	index map[string]int
	rates []expEntry
	det   map[int]detEntry
}

type expEntry struct {
	from, to int
	rate     float64
}

type detEntry struct {
	to    int
	delay float64
}

// Errors returned by process construction and analysis.
var (
	ErrBadRate  = errors.New("mrgp: invalid rate")
	ErrBadDelay = errors.New("mrgp: invalid delay")
	ErrEmpty    = errors.New("mrgp: no states")
)

// New returns an empty process.
func New() *Process {
	return &Process{index: make(map[string]int), det: make(map[int]detEntry)}
}

// State ensures a state exists and returns its index.
func (p *Process) State(name string) int {
	if i, ok := p.index[name]; ok {
		return i
	}
	i := len(p.names)
	p.index[name] = i
	p.names = append(p.names, name)
	return i
}

// AddExp adds an exponential transition.
func (p *Process) AddExp(from, to string, rate float64) error {
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return fmt.Errorf("%w: %g for %q -> %q", ErrBadRate, rate, from, to)
	}
	if from == to {
		return fmt.Errorf("mrgp: self transition %q", from)
	}
	p.rates = append(p.rates, expEntry{from: p.State(from), to: p.State(to), rate: rate})
	return nil
}

// SetDeterministic attaches a deterministic timeout to a state: after
// `delay` in the state (if no exponential transition fired first) the
// process jumps to `to`. A state may carry at most one timeout.
func (p *Process) SetDeterministic(from, to string, delay float64) error {
	if delay <= 0 || math.IsNaN(delay) || math.IsInf(delay, 0) {
		return fmt.Errorf("%w: %g for %q", ErrBadDelay, delay, from)
	}
	if from == to {
		return fmt.Errorf("mrgp: deterministic self transition %q", from)
	}
	fi := p.State(from)
	if _, ok := p.det[fi]; ok {
		return fmt.Errorf("mrgp: state %q already has a deterministic timeout", from)
	}
	p.det[fi] = detEntry{to: p.State(to), delay: delay}
	return nil
}

// embedded computes, per state, the jump probabilities and expected sojourn
// of the regenerative step.
func (p *Process) embedded() (jump [][]expEntry, sojourn []float64, err error) {
	n := len(p.names)
	if n == 0 {
		return nil, nil, ErrEmpty
	}
	totals := make([]float64, n)
	outs := make([][]expEntry, n)
	for _, e := range p.rates {
		totals[e.from] += e.rate
		outs[e.from] = append(outs[e.from], e)
	}
	jump = make([][]expEntry, n)
	sojourn = make([]float64, n)
	for i := 0; i < n; i++ {
		lam := totals[i]
		d, hasDet := p.det[i]
		switch {
		case !hasDet && lam == 0: //numvet:allow float-eq exactly-zero exit rate marks an absorbing state
			// Absorbing state: no jumps, infinite sojourn (flagged by -1).
			sojourn[i] = -1
		case !hasDet:
			sojourn[i] = 1 / lam
			for _, e := range outs[i] {
				jump[i] = append(jump[i], expEntry{from: i, to: e.to, rate: e.rate / lam})
			}
		case lam == 0: //numvet:allow float-eq exactly-zero exit rate leaves only the deterministic jump
			sojourn[i] = d.delay
			jump[i] = append(jump[i], expEntry{from: i, to: d.to, rate: 1})
		default:
			surv := math.Exp(-lam * d.delay)
			sojourn[i] = (1 - surv) / lam
			jump[i] = append(jump[i], expEntry{from: i, to: d.to, rate: surv})
			for _, e := range outs[i] {
				jump[i] = append(jump[i], expEntry{from: i, to: e.to, rate: (e.rate / lam) * (1 - surv)})
			}
		}
	}
	return jump, sojourn, nil
}

// SteadyState returns the long-run fraction of time in each state via the
// embedded Markov renewal sequence.
func (p *Process) SteadyState() (map[string]float64, error) {
	jump, sojourn, err := p.embedded()
	if err != nil {
		return nil, err
	}
	for i, s := range sojourn {
		if s < 0 {
			return nil, fmt.Errorf("mrgp: state %q is absorbing; steady state undefined", p.names[i])
		}
	}
	d := markov.NewDTMC()
	for _, name := range p.names {
		d.State(name)
	}
	for i, entries := range jump {
		for _, e := range entries {
			if e.to == i {
				continue
			}
			if err := d.AddProb(p.names[i], p.names[e.to], e.rate); err != nil {
				return nil, err
			}
		}
		// Self-jump mass (det target equals source is rejected at build
		// time, so none is expected; guard anyway by renormalizing below).
	}
	nu, err := d.SteadyState()
	if err != nil {
		return nil, fmt.Errorf("mrgp embedded chain: %w", err)
	}
	w := make([]float64, len(nu))
	for i := range nu {
		w[i] = nu[i] * sojourn[i]
	}
	if err := linalg.Normalize1(w); err != nil {
		return nil, fmt.Errorf("mrgp: %w", err)
	}
	out := make(map[string]float64, len(w))
	for i, name := range p.names {
		out[name] = w[i]
	}
	return out, nil
}
