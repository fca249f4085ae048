package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/slo"
)

// e16HoursEnv overrides the simulated horizon per scenario:
// E16_HOURS=48 runs two simulated days instead of the CI-sized six
// hours, tightening the fitted rates (the EXPERIMENTS.md E16 numbers
// use the default).
const e16HoursEnv = "E16_HOURS"

// e16Band is the documented modeled-vs-measured acceptance band: the
// fitted self-CTMC's steady-state availability must land within this
// absolute gap of the ground-truth up fraction.
const e16Band = 0.05

// e16Cadence is the sampling interval, matching the 2 s serve sampling
// cadence.
const e16Cadence = 2 * time.Second

// e16State is one state of the ground-truth trajectory: an exponential
// mean dwell and a branching distribution over successors.
type e16State struct {
	mean float64 // seconds
	next []e16Branch
}

type e16Branch struct {
	to string
	p  float64
}

// e16Scenario is a named ground-truth process the self-model observes.
type e16Scenario struct {
	name   string
	states map[string]e16State
}

// e16Scenarios are three serve lifecycles of increasing turbulence:
// calm (long healthy stretches, brief breaker-open outages), congested
// (saturation episodes that sometimes tip into an open breaker), and
// flapping (rapid ok/open cycling, the worst case for budget burn).
func e16Scenarios() []e16Scenario {
	return []e16Scenario{
		{name: "calm", states: map[string]e16State{
			"ok":   {mean: 300, next: []e16Branch{{to: "open", p: 1}}},
			"open": {mean: 10, next: []e16Branch{{to: "ok", p: 1}}},
		}},
		{name: "congested", states: map[string]e16State{
			"ok":        {mean: 60, next: []e16Branch{{to: "saturated", p: 0.7}, {to: "open", p: 0.3}}},
			"saturated": {mean: 20, next: []e16Branch{{to: "ok", p: 0.8}, {to: "open", p: 0.2}}},
			"open":      {mean: 15, next: []e16Branch{{to: "ok", p: 1}}},
		}},
		{name: "flapping", states: map[string]e16State{
			"ok":   {mean: 40, next: []e16Branch{{to: "open", p: 1}}},
			"open": {mean: 12, next: []e16Branch{{to: "ok", p: 1}}},
		}},
	}
}

// E16SelfModel validates the serve self-modeling loop end to end
// against ground truth it can never have in production. A known CTMC
// plays the part of the serving process (states ok/saturated/open with
// exponential dwells); the experiment watches it exactly the way serve
// watches itself — sampling the current state every two seconds into
// slo.SelfModel — then solves the fitted chain and compares predicted
// steady-state availability against the trajectory's true up fraction.
// The sampled observer quantizes dwell times and misses excursions
// shorter than its cadence, so agreement is not a tautology: the row
// fails the run if the gap exceeds the documented 0.05 band.
func E16SelfModel(rec obs.Recorder) (*core.Table, error) {
	t := &core.Table{
		ID:      "E16",
		Title:   "Self-model fidelity: sampled availability CTMC of the server matches ground truth (extension)",
		Columns: []string{"scenario", "sim_hours", "samples", "states", "transitions", "measured_avail", "modeled_avail", "abs_gap"},
		Notes:   "measured = ground-truth up fraction (ok+saturated); modeled = gth steady state of the fitted chain; gap band " + f64p(e16Band, 2) + "; E16_HOURS extends the horizon",
	}
	hours := 6.0
	if env := os.Getenv(e16HoursEnv); env != "" {
		h, err := strconv.ParseFloat(env, 64)
		if err != nil || h <= 0 {
			return nil, fmt.Errorf("E16: bad %s=%q", e16HoursEnv, env)
		}
		hours = h
	}
	horizon := hours * 3600
	base := time.Unix(1_700_000_000, 0)

	for i, sc := range e16Scenarios() {
		sp := rec.Span("scenario=" + sc.name)
		rng := rand.New(rand.NewSource(int64(20160628 + i)))
		sm := slo.NewSelfModel()
		truth := map[string]float64{}
		samples := 0

		cur := "ok"
		now := 0.0
		nextSample := 0.0
		for now < horizon {
			st, ok := sc.states[cur]
			if !ok {
				sp.End()
				return nil, fmt.Errorf("E16: scenario %s: unknown state %q", sc.name, cur)
			}
			end := now + rng.ExpFloat64()*st.mean
			visible := end
			if visible > horizon {
				visible = horizon
			}
			truth[cur] += visible - now
			for nextSample < visible {
				sm.Step(cur, base.Add(time.Duration(nextSample*float64(time.Second))))
				samples++
				nextSample += e16Cadence.Seconds()
			}
			now = end
			u := rng.Float64()
			for _, b := range st.next {
				if u -= b.p; u <= 0 {
					cur = b.to
					break
				}
			}
		}

		states := make([]string, 0, len(truth))
		for s := range truth {
			states = append(states, s)
		}
		sort.Strings(states)
		var total float64
		for _, s := range states {
			total += truth[s]
		}
		measured := (truth["ok"] + truth["saturated"]) / total

		pred, err := sm.Predict([]string{"ok", "saturated"}, base.Add(time.Duration(horizon*float64(time.Second))))
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("E16: scenario %s: %w", sc.name, err)
		}
		gap := pred.Availability - measured
		if gap < 0 {
			gap = -gap
		}
		if gap > e16Band {
			return nil, fmt.Errorf("E16: scenario %s: modeled %g vs measured %g (gap %g exceeds band %g)",
				sc.name, pred.Availability, measured, gap, e16Band)
		}
		if err := t.AddRow(sc.name, f64p(hours, 1), itoa(samples),
			itoa(pred.States), itoa(pred.Transitions),
			f64(measured), f64(pred.Availability), f64(gap)); err != nil {
			return nil, err
		}
	}
	return t, nil
}
