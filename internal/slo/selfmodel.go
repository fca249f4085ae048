package slo

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/modelio"
)

// SelfModel fits a small availability CTMC of the serving process from
// its own observed behavior. The serve loop periodically classifies
// itself into a coarse state ("ok", "saturated", "open", ...); Step
// accumulates dwell time per state and transition counts between states;
// Predict fits exponential rates (count / dwell) and solves the resulting
// chain with the repo's own solver stack, yielding predicted steady-state
// availability to sit next to the measured SLO — the tutorial's
// availability modeling applied to the model server itself.
type SelfModel struct {
	mu     sync.Mutex
	last   string
	lastAt time.Time
	dwell  map[string]float64 // seconds spent in each state
	trans  map[string]map[string]float64
	steps  int
}

// NewSelfModel returns an empty model.
func NewSelfModel() *SelfModel {
	return &SelfModel{
		dwell: make(map[string]float64),
		trans: make(map[string]map[string]float64),
	}
}

// Step records that the process was observed in state at time at.
// Observations must arrive in time order; a non-advancing clock
// contributes zero dwell and is harmless.
func (m *SelfModel) Step(state string, at time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.last == "" {
		m.last = state
		m.lastAt = at
		m.dwell[state] += 0
		m.steps++
		return
	}
	if dt := at.Sub(m.lastAt).Seconds(); dt > 0 {
		m.dwell[m.last] += dt
	}
	if state != m.last {
		row := m.trans[m.last]
		if row == nil {
			row = make(map[string]float64)
			m.trans[m.last] = row
		}
		row[state]++
	}
	m.last = state
	m.lastAt = at
	m.steps++
}

// Steps reports how many observations have been recorded.
func (m *SelfModel) Steps() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.steps
}

// Prediction is the outcome of solving the fitted self-CTMC.
type Prediction struct {
	// Availability is the predicted steady-state probability of being in
	// an up state.
	Availability float64 `json:"availability"`
	// States and Transitions size the fitted chain.
	States      int `json:"states"`
	Transitions int `json:"transitions"`
	// Observed is the raw dwell-time fraction per state — what the
	// fitted chain's steady state is compared against.
	Observed map[string]float64 `json:"observed_fraction,omitempty"`
	// Solver names the engine that solved the chain.
	Solver string `json:"solver,omitempty"`
	// At stamps when the prediction was computed.
	At time.Time `json:"at"`
}

// Predict fits rates from the accumulated counts (extending the current
// state's dwell to now) and solves the chain for steady-state
// availability over the given up states. It fails with an error naming
// the gap when the observations cannot support a well-posed chain yet.
func (m *SelfModel) Predict(up []string, now time.Time) (Prediction, error) {
	m.mu.Lock()
	dwell := make(map[string]float64, len(m.dwell))
	for s, d := range m.dwell {
		dwell[s] = d
	}
	if m.last != "" {
		if dt := now.Sub(m.lastAt).Seconds(); dt > 0 {
			dwell[m.last] += dt
		}
	}
	trans := make(map[string]map[string]float64, len(m.trans))
	for from, row := range m.trans {
		cp := make(map[string]float64, len(row))
		for to, n := range row {
			cp[to] = n
		}
		trans[from] = cp
	}
	m.mu.Unlock()

	if len(dwell) == 0 {
		return Prediction{}, fmt.Errorf("selfmodel: no observations yet")
	}
	upSet := make(map[string]bool, len(up))
	for _, s := range up {
		upSet[s] = true
	}
	states := make([]string, 0, len(dwell))
	for s := range dwell {
		states = append(states, s)
	}
	sort.Strings(states)
	var total float64
	for _, s := range states {
		total += dwell[s]
	}
	if total <= 0 {
		return Prediction{}, fmt.Errorf("selfmodel: no dwell time accumulated yet")
	}
	observed := make(map[string]float64, len(dwell))
	for _, s := range states {
		observed[s] = dwell[s] / total
	}

	pred := Prediction{States: len(states), Observed: observed, At: now}

	// Degenerate single-state chains need no solver: availability is 1
	// or 0 by membership.
	if len(states) == 1 {
		if upSet[states[0]] {
			pred.Availability = 1
		}
		return pred, nil
	}

	spec := &modelio.Spec{
		Type: "ctmc",
		Name: "selfmodel",
		CTMC: &modelio.CTMCSpec{
			Measures: []string{"availability"},
			Solver:   "gth",
		},
	}
	for _, from := range states {
		if upSet[from] {
			spec.CTMC.UpStates = append(spec.CTMC.UpStates, from)
		}
		row := trans[from]
		if len(row) == 0 {
			// A visited state with no observed exit would make the chain
			// absorbing by accident of a short observation window.
			return pred, fmt.Errorf("selfmodel: state %q has dwell but no observed exit yet", from)
		}
		if dwell[from] <= 0 {
			return pred, fmt.Errorf("selfmodel: state %q has transitions but no dwell time", from)
		}
		tos := make([]string, 0, len(row))
		for to := range row {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			spec.CTMC.Transitions = append(spec.CTMC.Transitions, modelio.CTMCTransition{
				From: from,
				To:   to,
				Rate: row[to] / dwell[from],
			})
			pred.Transitions++
		}
	}
	if len(spec.CTMC.UpStates) == 0 {
		// No observed state counts as up: availability is 0 without
		// needing a solve (and "availability" requires up states).
		return pred, nil
	}
	results, err := modelio.SolveWithOptions(spec, modelio.SolveOptions{})
	if err != nil {
		return pred, fmt.Errorf("selfmodel: solve: %w", err)
	}
	for _, r := range results {
		if r.Measure == "availability" {
			pred.Availability = r.Value
			pred.Solver = "gth"
			return pred, nil
		}
	}
	return pred, fmt.Errorf("selfmodel: solver returned no availability measure")
}
