// Package slo evaluates declarative service-level objectives over the
// live request stream: availability percentages and latency thresholds
// per request class, judged by multi-window burn rates (Google SRE
// workbook shape: a fast 5m window catches cliff outages, a 1h window
// sustained degradation, a 6h window slow budget leaks) with error-budget
// accounting, relslo_* metric families, and edge-triggered breach events.
//
// The package also contains the self-modeling layer (see SelfModel): the
// serve process periodically classifies its own state, fits a small
// availability CTMC from the observed dwell times and transition counts,
// and solves it with the repo's own engine — publishing predicted
// steady-state availability next to the measured SLO.
package slo

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Objective is one declarative service-level objective over a request
// class selected by Match.
type Objective struct {
	// Name identifies the objective in metrics, breach events, and the
	// dashboard.
	Name string `json:"name"`
	// Match filters the request class by label. The only supported key
	// today is "route"; an empty map matches every request.
	Match map[string]string `json:"match,omitempty"`
	// Target is the objective in (0,1): the fraction of events that must
	// be good (e.g. 0.999 availability, or 0.95 of requests under the
	// latency threshold).
	Target float64 `json:"target"`
	// LatencyThresholdMS, when positive, makes this a latency objective:
	// a request is bad when it fails (5xx) or runs longer than the
	// threshold. Zero means a pure availability objective (bad = 5xx).
	LatencyThresholdMS float64 `json:"latency_threshold_ms,omitempty"`
}

// Kind reports "latency" or "availability".
func (o Objective) Kind() string {
	if o.LatencyThresholdMS > 0 {
		return "latency"
	}
	return "availability"
}

func (o Objective) matches(route string) bool {
	if want, ok := o.Match["route"]; ok && want != route {
		return false
	}
	return true
}

func (o Objective) bad(status int, latency time.Duration) bool {
	if status >= 500 {
		return true
	}
	return o.LatencyThresholdMS > 0 && float64(latency.Nanoseconds())/1e6 > o.LatencyThresholdMS
}

// WindowSpec pairs an evaluation window with its burn-rate alerting
// threshold.
type WindowSpec struct {
	Span      time.Duration
	Threshold float64
}

// DefaultWindows returns the standard multi-window multi-burn-rate
// ladder: 5m at 14.4x (2% of a 30-day budget in an hour), 1h at 6x,
// 6h at 1x.
func DefaultWindows() []WindowSpec {
	return []WindowSpec{
		{Span: 5 * time.Minute, Threshold: 14.4},
		{Span: time.Hour, Threshold: 6},
		{Span: 6 * time.Hour, Threshold: 1},
	}
}

// Breach is an edge-triggered objective violation event: emitted once
// when a window's burn rate crosses its threshold, re-armed when it
// drops back below.
type Breach struct {
	Objective string    `json:"objective"`
	Window    string    `json:"window"`
	BurnRate  float64   `json:"burn_rate"`
	Threshold float64   `json:"threshold"`
	At        time.Time `json:"at"`
}

// Config configures an Engine.
type Config struct {
	// Objectives to evaluate; at least one, names unique, targets in (0,1).
	Objectives []Objective
	// Windows is the burn-rate ladder (nil means DefaultWindows).
	Windows []WindowSpec
	// Registry receives the relslo_* metric families (nil disables).
	Registry *metrics.Registry
	// MinEvents gates breach detection: a window with fewer events never
	// breaches, so a single early failure cannot fire a 14.4x page
	// (0 means 10).
	MinEvents int
	// Now is the clock (nil means time.Now); injectable for tests and
	// deterministic experiments.
	Now func() time.Time
	// OnBreach, when set, receives each edge-triggered breach event.
	OnBreach func(Breach)
}

// WindowStatus is one window's evaluation inside an ObjectiveStatus.
type WindowStatus struct {
	// Window is the human label ("5m", "1h", "6h").
	Window string `json:"window"`
	// Total and Bad are the event counts currently inside the window.
	Total uint64 `json:"total"`
	Bad   uint64 `json:"bad"`
	// BurnRate is badRate / (1 - target): 1.0 burns the budget exactly
	// at the sustainable rate, higher burns faster.
	BurnRate float64 `json:"burn_rate"`
	// Threshold is the alerting threshold for this window.
	Threshold float64 `json:"threshold"`
	// Breaching reports burn >= threshold with at least MinEvents events.
	Breaching bool `json:"breaching"`
}

// ObjectiveStatus is one objective's full evaluation.
type ObjectiveStatus struct {
	Name    string         `json:"name"`
	Kind    string         `json:"kind"`
	Target  float64        `json:"target"`
	Windows []WindowStatus `json:"windows"`
	// WorstBurn is the maximum burn rate across windows.
	WorstBurn float64 `json:"worst_burn"`
	// BudgetRemaining is the error budget left over the longest window,
	// clamped to [0,1]: 1 - badRate/(1-target).
	BudgetRemaining float64 `json:"budget_remaining"`
	// Measured is the good-event fraction over the longest window (1.0
	// when the window is empty) — the "measured availability" the
	// self-model prediction is compared against.
	Measured float64 `json:"measured"`
	// Breaching reports whether any window is currently breaching.
	Breaching bool `json:"breaching"`
	// Breaches counts edge-triggered breach events since start.
	Breaches int `json:"breaches"`
	// LastBreach is the most recent breach event, if any.
	LastBreach *Breach `json:"last_breach,omitempty"`
}

// Report is the modeled-vs-measured SLO document: serve's GET /api/slo
// reply, which the dashboard's SLO panel renders as it is.
type Report struct {
	// Enabled is always true in serve, whose engine always runs.
	Enabled    bool              `json:"enabled"`
	Objectives []ObjectiveStatus `json:"objectives,omitempty"`
	// Measured is the availability-objective good fraction over the
	// longest window — the number Model.Availability is compared to.
	Measured *float64 `json:"measured_availability,omitempty"`
	// Model is the latest self-model prediction; ModelError names why
	// there is none yet (warming up, sampler disabled).
	Model      *Prediction `json:"model,omitempty"`
	ModelError string      `json:"model_error,omitempty"`
}

// Engine evaluates a set of objectives over the request stream.
type Engine struct {
	cfg     Config
	windows []WindowSpec
	mu      sync.Mutex // guards breach latches and counters across Status calls
	objs    []*objectiveState

	events   *metrics.Counter
	burn     *metrics.Gauge
	budget   *metrics.Gauge
	breaches *metrics.Counter
}

type objectiveState struct {
	obj      Objective
	counters []*metrics.SlidingCounter // one per window, ascending span
	latched  []bool                    // breach latch per window
	breaches int
	last     *Breach
}

// New validates cfg and builds an engine.
func New(cfg Config) (*Engine, error) {
	if len(cfg.Objectives) == 0 {
		return nil, fmt.Errorf("slo: no objectives")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.MinEvents <= 0 {
		cfg.MinEvents = 10
	}
	windows := cfg.Windows
	if len(windows) == 0 {
		windows = DefaultWindows()
	}
	windows = append([]WindowSpec(nil), windows...)
	sort.Slice(windows, func(i, j int) bool { return windows[i].Span < windows[j].Span })
	for _, w := range windows {
		if w.Span <= 0 {
			return nil, fmt.Errorf("slo: window span must be positive, got %v", w.Span)
		}
		if w.Threshold <= 0 {
			return nil, fmt.Errorf("slo: window %s threshold must be positive, got %g", windowLabel(w.Span), w.Threshold)
		}
	}
	e := &Engine{cfg: cfg, windows: windows}
	seen := map[string]bool{}
	for _, o := range cfg.Objectives {
		if o.Name == "" {
			return nil, fmt.Errorf("slo: objective with empty name")
		}
		if seen[o.Name] {
			return nil, fmt.Errorf("slo: duplicate objective %q", o.Name)
		}
		seen[o.Name] = true
		if !(o.Target > 0 && o.Target < 1) {
			return nil, fmt.Errorf("slo: objective %q target must lie in (0,1), got %g", o.Name, o.Target)
		}
		if o.LatencyThresholdMS < 0 {
			return nil, fmt.Errorf("slo: objective %q latency threshold must be >= 0, got %g", o.Name, o.LatencyThresholdMS)
		}
		st := &objectiveState{obj: o, latched: make([]bool, len(windows))}
		for _, w := range windows {
			st.counters = append(st.counters, metrics.NewSlidingCounterClock(w.Span, 30, cfg.Now))
		}
		e.objs = append(e.objs, st)
	}
	if cfg.Registry != nil {
		e.events = cfg.Registry.NewCounter("relslo_events_total",
			"SLO events judged, by objective and verdict (good/bad).", "objective", "verdict")
		e.burn = cfg.Registry.NewGauge("relslo_burn_rate",
			"Error-budget burn rate per objective and window (1.0 = sustainable).", "objective", "window")
		e.budget = cfg.Registry.NewGauge("relslo_budget_remaining",
			"Fraction of error budget remaining per objective over the longest window.", "objective")
		e.breaches = cfg.Registry.NewCounter("relslo_breaches_total",
			"Edge-triggered SLO breach events, by objective and window.", "objective", "window")
	}
	return e, nil
}

// Observe judges one finished request against every matching objective.
// Safe for concurrent use (the sliding counters serialize internally).
func (e *Engine) Observe(route string, status int, latency time.Duration) {
	for _, st := range e.objs {
		if !st.obj.matches(route) {
			continue
		}
		bad := st.obj.bad(status, latency)
		for _, c := range st.counters {
			c.Record(bad)
		}
		if e.events != nil {
			verdict := "good"
			if bad {
				verdict = "bad"
			}
			e.events.Inc(st.obj.Name, verdict)
		}
	}
}

// Status evaluates every objective now, updating gauges and firing
// edge-triggered breach callbacks for windows that newly crossed their
// threshold.
func (e *Engine) Status() []ObjectiveStatus {
	e.mu.Lock()
	now := e.cfg.Now()
	var fired []Breach
	out := make([]ObjectiveStatus, 0, len(e.objs))
	for _, st := range e.objs {
		os := ObjectiveStatus{
			Name:            st.obj.Name,
			Kind:            st.obj.Kind(),
			Target:          st.obj.Target,
			Windows:         make([]WindowStatus, 0, len(e.windows)),
			BudgetRemaining: 1,
			Measured:        1,
		}
		budgetRate := 1 - st.obj.Target
		for wi, w := range e.windows {
			good, bad := st.counters[wi].Totals()
			total := good + bad
			ws := WindowStatus{
				Window:    windowLabel(w.Span),
				Total:     total,
				Bad:       bad,
				Threshold: w.Threshold,
			}
			if total > 0 {
				ws.BurnRate = (float64(bad) / float64(total)) / budgetRate
			}
			ws.Breaching = total >= uint64(e.cfg.MinEvents) && ws.BurnRate >= w.Threshold
			if ws.BurnRate > os.WorstBurn {
				os.WorstBurn = ws.BurnRate
			}
			if ws.Breaching {
				os.Breaching = true
				if !st.latched[wi] {
					st.latched[wi] = true
					b := Breach{
						Objective: st.obj.Name,
						Window:    ws.Window,
						BurnRate:  ws.BurnRate,
						Threshold: w.Threshold,
						At:        now,
					}
					st.breaches++
					st.last = &b
					fired = append(fired, b)
					if e.breaches != nil {
						e.breaches.Inc(st.obj.Name, ws.Window)
					}
				}
			} else {
				st.latched[wi] = false
			}
			if e.burn != nil {
				e.burn.Set(ws.BurnRate, st.obj.Name, ws.Window)
			}
			// The longest window (last after sorting) carries the budget
			// and measured-availability accounting.
			if wi == len(e.windows)-1 && total > 0 {
				os.Measured = float64(good) / float64(total)
				os.BudgetRemaining = 1 - (float64(bad)/float64(total))/budgetRate
				if os.BudgetRemaining < 0 {
					os.BudgetRemaining = 0
				}
			}
			os.Windows = append(os.Windows, ws)
		}
		os.Breaches = st.breaches
		os.LastBreach = st.last
		if e.budget != nil {
			e.budget.Set(os.BudgetRemaining, st.obj.Name)
		}
		out = append(out, os)
	}
	e.mu.Unlock()
	// Callbacks run outside the lock so an OnBreach hook may query the
	// engine again without deadlocking.
	if e.cfg.OnBreach != nil {
		for _, b := range fired {
			e.cfg.OnBreach(b)
		}
	}
	return out
}

// windowLabel renders a window span compactly ("5m", "1h", "6h").
func windowLabel(d time.Duration) string {
	switch {
	case d >= time.Hour && d%time.Hour == 0:
		return fmt.Sprintf("%dh", int(d/time.Hour))
	case d >= time.Minute && d%time.Minute == 0:
		return fmt.Sprintf("%dm", int(d/time.Minute))
	case d >= time.Second && d%time.Second == 0:
		return fmt.Sprintf("%ds", int(d/time.Second))
	default:
		return d.String()
	}
}

// DefaultObjectives returns the objectives serve uses when no -slo file
// is given: three nines availability on /solve and a p95-style 2s
// latency objective on /solve.
func DefaultObjectives() []Objective {
	return []Objective{
		{Name: "solve-availability", Match: map[string]string{"route": "/solve"}, Target: 0.999},
		{Name: "solve-latency-p95", Match: map[string]string{"route": "/solve"}, Target: 0.95, LatencyThresholdMS: 2000},
	}
}

// configDoc is the on-disk -slo file shape.
type configDoc struct {
	Objectives []Objective `json:"objectives"`
}

// ParseConfig reads a declarative objectives file:
//
//	{"objectives": [
//	  {"name": "solve-availability", "target": 0.999,
//	   "match": {"route": "/solve"}},
//	  {"name": "solve-latency-p95", "target": 0.95,
//	   "latency_threshold_ms": 2000, "match": {"route": "/solve"}}
//	]}
//
// Validation of names/targets happens in New; ParseConfig only rejects
// malformed JSON, unknown fields, and an empty objective list.
func ParseConfig(r io.Reader) ([]Objective, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var doc configDoc
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("slo config: %w", err)
	}
	if len(doc.Objectives) == 0 {
		return nil, fmt.Errorf("slo config: no objectives")
	}
	return doc.Objectives, nil
}
