// Package reldash is the embedded observability dashboard mounted on
// `relcli serve`. It follows the embedded-templates-over-an-analysis-
// engine pattern: html/template pages compiled from an embed.FS (no
// external assets, no new dependencies) rendering views over the
// telemetry the solve pipeline already produces — the obs.TraceStore of
// retained solve traces, the relscope metrics registry snapshot, and the
// committed suite baseline (BENCH_solvers.json, written by the root
// package's TestSuiteBaseline). Its live panels render the engines' own
// documents as the serve routes return them: jobs.Snapshot (GET /jobs),
// slo.Report (GET /api/slo) and obs.ProfileEntry (GET /api/profiles).
//
// Routes (all GET, all marked Cache-Control: no-store):
//
//	/ui              trace list + filters + metric highlights + bench baseline
//	/ui/trace/{id}   one trace: nested span tree, attrs, residual sparklines
//	/api/traces      filterable trace metadata (model, solver, outcome, limit)
//	/api/traces/{id} one full trace record including the span tree
//	/api/metrics     metrics.Registry snapshot as structured JSON
//	/api/bench       BENCH_solvers.json rows (solver, iterations, allocs, wall per experiment)
//	/api/summary     sliding-window throughput/error rate + uptime + store occupancy
//
// The /ui pages poll /api/summary for liveness; there is no SSE or
// websocket machinery, so the dashboard works wherever net/http does.
package reldash

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"html/template"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/slo"
)

//go:embed templates/*.gohtml
var templateFS embed.FS

// ParseTemplates compiles the embedded dashboard templates. It is
// exported so a unit test can fail the build on a broken template
// instead of the first page load discovering it.
func ParseTemplates() (*template.Template, error) {
	return template.New("reldash").Funcs(template.FuncMap{
		"ms":      fmtMS,
		"msNS":    func(ns int64) string { return fmtMS(float64(ns) / 1e6) },
		"rfc3339": func(t time.Time) string { return t.Format(time.RFC3339) },
		"spark":   sparklineSVG,
		"resid":   residRange,
		// pct renders a fraction as a whole percentage for the progress
		// and error-budget bars.
		"pct": func(x float64) int { return int(x*100 + 0.5) },
		// deref prints an optional number; nil (no availability
		// objective) prints as 0.
		"deref": func(p *float64) float64 {
			if p == nil {
				return 0
			}
			return *p
		},
	}).ParseFS(templateFS, "templates/*.gohtml")
}

// fmtMS renders a millisecond quantity with its unit attached.
func fmtMS(v float64) string { return fmt.Sprintf("%.3gms", v) }

// Config wires the dashboard to the serve process's telemetry surfaces.
// The func fields are read on every page load, so a test can feed fixed
// documents.
type Config struct {
	// Store holds the retained solve traces (required).
	Store *obs.TraceStore
	// Registry backs /api/metrics and the index metric highlights
	// (nil means the default registry).
	Registry *metrics.Registry
	// BenchPath locates the committed bench baseline for /api/bench
	// (empty disables the bench section).
	BenchPath string
	// Window counts request completions (bad = 4xx/5xx) for /api/summary
	// (nil builds a one-minute window; the caller must then Record into
	// that one).
	Window *metrics.SlidingCounter
	// InFlight reports currently-executing solves (nil reports 0).
	InFlight func() int
	// Start anchors the uptime report (zero means "now").
	Start time.Time
	// Resilience snapshots the serve-layer protection state — admission
	// queue occupancy, breaker states, shed/degraded counts, draining —
	// for /api/summary and the index page (nil hides the section).
	Resilience func() Resilience
	// Jobs lists the async sweep jobs for the index Jobs panel (nil
	// hides it).
	Jobs func() []*jobs.Snapshot
	// SLO reports the objective engine and the self-model prediction for
	// the index SLO panel (nil, or a nil return, hides it).
	SLO func() *slo.Report
	// Profiles lists continuous-profiling captures overlapping a time
	// window, for the trace detail page (nil hides the section).
	Profiles func(start, end time.Time) []obs.ProfileEntry
}

// Resilience is the serve-layer protection snapshot the dashboard
// renders: is the process draining, how full is the admission queue,
// which model-class circuit breakers have left the closed state, and
// how much traffic has been shed or answered with degraded bounds.
type Resilience struct {
	Draining bool              `json:"draining"`
	QueueLen int               `json:"queue_len"`
	QueueCap int               `json:"queue_cap"`
	Breakers map[string]string `json:"breakers,omitempty"`
	Shed     float64           `json:"shed_total"`
	Degraded float64           `json:"degraded_total"`
}

// Handler serves the dashboard pages and their JSON APIs.
type Handler struct {
	cfg  Config
	tmpl *template.Template
}

// NewHandler validates the config and compiles the templates.
func NewHandler(cfg Config) (*Handler, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("reldash: Config.Store is required")
	}
	if cfg.Registry == nil {
		cfg.Registry = metrics.Default()
	}
	if cfg.Window == nil {
		cfg.Window = metrics.NewSlidingCounter(time.Minute, 0)
	}
	if cfg.Start.IsZero() {
		cfg.Start = time.Now()
	}
	tmpl, err := ParseTemplates()
	if err != nil {
		return nil, fmt.Errorf("reldash: %w", err)
	}
	return &Handler{cfg: cfg, tmpl: tmpl}, nil
}

// Register mounts every dashboard route on mux.
func (h *Handler) Register(mux *http.ServeMux) {
	mux.HandleFunc("GET /ui", h.handleIndex)
	mux.HandleFunc("GET /ui/{$}", h.handleIndex)
	mux.HandleFunc("GET /ui/trace/{id}", h.handleTracePage)
	mux.HandleFunc("GET /api/traces", h.handleTraces)
	mux.HandleFunc("GET /api/traces/{id}", h.handleTrace)
	mux.HandleFunc("GET /api/metrics", h.handleMetrics)
	mux.HandleFunc("GET /api/bench", h.handleBench)
	mux.HandleFunc("GET /api/summary", h.handleSummary)
}

// setHeaders stamps the explicit content type and the no-store cache
// policy every /ui and /api/* response carries (live telemetry must
// never be cached).
func setHeaders(w http.ResponseWriter, contentType string) {
	h := w.Header()
	h.Set("Content-Type", contentType)
	h.Set("Cache-Control", "no-store")
}

// WriteJSON emits an indented JSON response (indented so curl output in
// the README examples reads without a formatter) with the explicit
// content type and the no-store cache policy. It is the one JSON reply
// writer of the dashboard and of every `relcli serve` route.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	setHeaders(w, "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// A write error here means the client hung up; nothing to recover.
	_ = enc.Encode(v) //numvet:allow ignored-err client disconnects are benign
}

// render executes a page template into a buffer first so a template
// failure becomes a clean 500 instead of half a page.
func (h *Handler) render(w http.ResponseWriter, name string, data any) {
	var buf bytes.Buffer
	if err := h.tmpl.ExecuteTemplate(&buf, name, data); err != nil {
		http.Error(w, "reldash: template "+name+": "+err.Error(), http.StatusInternalServerError)
		return
	}
	setHeaders(w, "text/html; charset=utf-8")
	_, _ = w.Write(buf.Bytes()) //numvet:allow ignored-err client disconnects are benign
}

// --- JSON APIs ---

// filterFromQuery maps ?model=&solver=&outcome=&limit= onto a store
// filter.
func filterFromQuery(r *http.Request) obs.TraceFilter {
	q := r.URL.Query()
	f := obs.TraceFilter{
		Model:   q.Get("model"),
		Solver:  q.Get("solver"),
		Outcome: q.Get("outcome"),
		Corr:    q.Get("corr"),
	}
	if n, err := strconv.Atoi(q.Get("limit")); err == nil && n > 0 {
		f.Limit = n
	}
	return f
}

// tracesPayload is the GET /api/traces reply document.
type tracesPayload struct {
	// Retained and Capacity describe store occupancy, independent of the
	// filter.
	Retained int `json:"retained"`
	Capacity int `json:"capacity"`
	// Traces are the matching records, newest first, without span trees.
	Traces []obs.TraceRecord `json:"traces"`
}

func (h *Handler) handleTraces(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, tracesPayload{
		Retained: h.cfg.Store.Len(),
		Capacity: h.cfg.Store.Cap(),
		Traces:   h.cfg.Store.List(filterFromQuery(r)),
	})
}

func (h *Handler) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := h.cfg.Store.Get(id)
	if !ok {
		WriteJSON(w, http.StatusNotFound, map[string]string{
			"error": "trace " + id + " not found (never stored, or evicted from the ring)",
		})
		return
	}
	WriteJSON(w, http.StatusOK, rec)
}

// metricsPayload is the GET /api/metrics reply document: the registry
// snapshot verbatim, the same values the Prometheus handler renders.
type metricsPayload struct {
	Families []metrics.FamilySnapshot `json:"families"`
}

func (h *Handler) handleMetrics(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, metricsPayload{Families: h.cfg.Registry.Snapshot()})
}

// benchRow is one experiment's row of the committed suite baseline.
type benchRow struct {
	ID         string  `json:"id"`
	Title      string  `json:"title"`
	Solver     string  `json:"solver"`
	Iterations int     `json:"iterations"`
	Allocs     uint64  `json:"allocs"`
	WallMS     float64 `json:"wall_ms"`
}

// loadBench decodes the baseline's rows, kept in file order.
func loadBench(path string) ([]benchRow, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows []benchRow
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rows, nil
}

// benchPayload is the GET /api/bench reply document.
type benchPayload struct {
	Source  string     `json:"source"`
	Error   string     `json:"error,omitempty"`
	Entries []benchRow `json:"entries"`
}

func (h *Handler) handleBench(w http.ResponseWriter, r *http.Request) {
	p := benchPayload{Source: h.cfg.BenchPath, Entries: []benchRow{}}
	if h.cfg.BenchPath == "" {
		p.Error = "no bench baseline configured (relcli serve -bench)"
	} else if rows, err := loadBench(h.cfg.BenchPath); err != nil {
		p.Error = err.Error()
	} else {
		p.Entries = rows
	}
	WriteJSON(w, http.StatusOK, p)
}

// summaryPayload is the GET /api/summary reply document the dashboard
// polls for liveness.
type summaryPayload struct {
	UptimeS        float64     `json:"uptime_s"`
	WindowS        float64     `json:"window_s"`
	Requests       int         `json:"requests"`
	Errors         int         `json:"errors"`
	ThroughputPerS float64     `json:"throughput_per_s"`
	ErrorRate      float64     `json:"error_rate"`
	InFlight       int         `json:"in_flight"`
	TraceStore     Occupancy   `json:"trace_store"`
	Resilience     *Resilience `json:"resilience,omitempty"`
}

// Occupancy is a bounded buffer's fill level, as /api/summary reports
// the trace store and serve's /healthz the admission queue.
type Occupancy struct {
	Len int `json:"len"`
	Cap int `json:"cap"`
}

func (h *Handler) handleSummary(w http.ResponseWriter, r *http.Request) {
	good, bad := h.cfg.Window.Totals()
	total, failed := int(good+bad), int(bad)
	windowS := h.cfg.Window.Span().Seconds()
	p := summaryPayload{
		UptimeS:    time.Since(h.cfg.Start).Seconds(),
		WindowS:    windowS,
		Requests:   total,
		Errors:     failed,
		TraceStore: Occupancy{Len: h.cfg.Store.Len(), Cap: h.cfg.Store.Cap()},
	}
	if windowS > 0 {
		p.ThroughputPerS = float64(total) / windowS
	}
	if total > 0 {
		p.ErrorRate = float64(failed) / float64(total)
	}
	if h.cfg.InFlight != nil {
		p.InFlight = h.cfg.InFlight()
	}
	if h.cfg.Resilience != nil {
		res := h.cfg.Resilience()
		p.Resilience = &res
	}
	WriteJSON(w, http.StatusOK, p)
}

// --- HTML pages ---

// indexData feeds templates/index.gohtml.
type indexData struct {
	Filter             obs.TraceFilter
	Traces             []obs.TraceRecord
	StoreLen, StoreCap int
	Solvers            []solverRow
	Winners            []winnerRow
	Outcomes           []outcomeRow
	Lumps              []lumpRow
	Bench              []benchRow
	BenchErr           string
	Resilience         *Resilience
	// JobsOn gates the Jobs panel; Jobs are the rows inside it.
	JobsOn bool
	Jobs   []*jobs.Snapshot
	// SLO is the SLO panel's report (nil hides the panel).
	SLO *slo.Report
}

// solverRow is one {solver, model} wall-time histogram series condensed
// for the index table.
type solverRow struct {
	Solver, Model string
	Count         uint64
	AvgMS         float64
}

// winnerRow is one decided fallback chain.
type winnerRow struct {
	Chain, Winner, Model string
	Count                float64
}

// outcomeRow is one guard outcome (canceled, deadline, panic, exhausted).
type outcomeRow struct {
	Outcome, Model string
	Count          float64
}

// lumpRow is one model's most recent lumping reduction ratio.
type lumpRow struct {
	Model string
	Ratio float64
}

func (h *Handler) handleIndex(w http.ResponseWriter, r *http.Request) {
	filter := filterFromQuery(r)
	data := indexData{
		Filter:   filter,
		Traces:   h.cfg.Store.List(filter),
		StoreLen: h.cfg.Store.Len(),
		StoreCap: h.cfg.Store.Cap(),
	}
	h.fillHighlights(&data)
	if h.cfg.Resilience != nil {
		res := h.cfg.Resilience()
		data.Resilience = &res
	}
	if h.cfg.Jobs != nil {
		data.JobsOn = true
		data.Jobs = h.cfg.Jobs()
	}
	if h.cfg.SLO != nil {
		data.SLO = h.cfg.SLO()
	}
	if h.cfg.BenchPath != "" {
		if rows, err := loadBench(h.cfg.BenchPath); err != nil {
			data.BenchErr = err.Error()
		} else {
			data.Bench = rows
		}
	}
	h.render(w, "index", data)
}

// fillHighlights condenses the registry snapshot into the index page's
// solver/fallback/guard/lump tables. Unknown families are simply absent:
// the dashboard renders whatever the solvers have reported so far.
func (h *Handler) fillHighlights(data *indexData) {
	for _, f := range h.cfg.Registry.Snapshot() {
		switch f.Name {
		case "relscope_solver_wall_seconds":
			for _, s := range f.Series {
				if len(s.LabelValues) < 2 || s.Count == 0 {
					continue
				}
				data.Solvers = append(data.Solvers, solverRow{
					Solver: s.LabelValues[0],
					Model:  s.LabelValues[1],
					Count:  s.Count,
					AvgMS:  s.Sum / float64(s.Count) * 1e3,
				})
			}
		case "relscope_chain_decided_total":
			for _, s := range f.Series {
				if len(s.LabelValues) < 3 {
					continue
				}
				data.Winners = append(data.Winners, winnerRow{
					Chain:  s.LabelValues[0],
					Winner: s.LabelValues[1],
					Model:  s.LabelValues[2],
					Count:  s.Value,
				})
			}
		case "relscope_guard_outcomes_total":
			for _, s := range f.Series {
				if len(s.LabelValues) < 2 {
					continue
				}
				data.Outcomes = append(data.Outcomes, outcomeRow{
					Outcome: s.LabelValues[0],
					Model:   s.LabelValues[1],
					Count:   s.Value,
				})
			}
		case "relscope_lump_reduction_ratio":
			for _, s := range f.Series {
				if len(s.LabelValues) < 1 {
					continue
				}
				data.Lumps = append(data.Lumps, lumpRow{
					Model: s.LabelValues[0],
					Ratio: s.Value,
				})
			}
		}
	}
}

// traceData feeds templates/trace.gohtml.
type traceData struct {
	Rec obs.TraceRecord
	// Profiles are the continuous-profiling captures whose windows
	// overlap this trace, cross-linking a slow request to the pprof
	// data recorded while it ran.
	Profiles   []obs.ProfileEntry
	ProfilesOn bool
}

func (h *Handler) handleTracePage(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := h.cfg.Store.Get(id)
	if !ok {
		setHeaders(w, "text/html; charset=utf-8")
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprintf(w, "<!doctype html><title>reldash</title><p>trace %s not found (never stored, or evicted). <a href=\"/ui\">back</a></p>",
			template.HTMLEscapeString(id))
		return
	}
	data := traceData{Rec: rec}
	if h.cfg.Profiles != nil {
		data.ProfilesOn = true
		end := rec.Start.Add(time.Duration(rec.WallMS * float64(time.Millisecond)))
		data.Profiles = h.cfg.Profiles(rec.Start, end)
	}
	h.render(w, "trace", data)
}

// --- sparkline rendering ---

// sparklineSVG renders per-iteration residuals as an inline SVG
// polyline on a log10 scale — the convergence sparkline on the trace
// detail page. Output depends only on the residual values, so golden
// tests over deterministic solvers lock it byte-for-byte.
func sparklineSVG(iters []obs.IterPoint) template.HTML {
	if len(iters) < 2 {
		return ""
	}
	const width, height, pad = 220.0, 36.0, 2.0
	vals := make([]float64, 0, len(iters))
	for _, p := range iters {
		v := p.Residual
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			// Log scale: clamp non-positive/non-finite residuals to a
			// floor rather than dropping the point, so the x axis still
			// aligns with iteration numbers.
			v = 1e-300
		}
		vals = append(vals, math.Log10(v))
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo = min(lo, v)
		hi = max(hi, v)
	}
	span := hi - lo
	if span <= 0 {
		span = 1
	}
	var b strings.Builder
	for i, v := range vals {
		x := pad + (width-2*pad)*float64(i)/float64(len(vals)-1)
		y := pad + (height-2*pad)*(hi-v)/span
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.1f,%.1f", x, y)
	}
	return template.HTML(fmt.Sprintf(
		`<svg class="spark" width="%d" height="%d" viewBox="0 0 %d %d" role="img" aria-label="residual convergence (log scale)"><polyline fill="none" stroke="currentColor" stroke-width="1.5" points="%s"/></svg>`,
		int(width), int(height), int(width), int(height), b.String()))
}

// residRange condenses an iteration series to "first → last" residuals.
func residRange(iters []obs.IterPoint) string {
	if len(iters) == 0 {
		return ""
	}
	return fmt.Sprintf("%.3g → %.3g", iters[0].Residual, iters[len(iters)-1].Residual)
}
