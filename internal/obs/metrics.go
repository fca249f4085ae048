package obs

import (
	"repro/internal/metrics"
)

// SolveMetrics folds finished solve traces into a metrics.Registry,
// turning per-solve span trees into cross-solve aggregates. It reads the
// attribute vocabulary the solvers already emit (see internal/linalg,
// markov, hier, faulttree, guard):
//
//   - spans carrying a "solver" attribute feed a wall-time histogram,
//     an iteration counter, and a last-residual gauge labeled
//     {solver, model};
//   - "guard.chain" spans feed fallback counters: one per attempt labeled
//     {chain, method, class} and one per decided chain labeled
//     {chain, winner} ("" when exhausted);
//   - "outcome" attributes (set by guard.RecordInterrupt, RecoverPanic,
//     and chain exhaustion) feed a guard-outcome counter labeled
//     {outcome} — canceled, deadline, panic, exhausted;
//   - "guard_warning_op" attributes (warn-mode guard rails) feed a
//     rail-warning counter labeled {op}.
//
// Register the families once per registry and call Observe when each
// solve returns: the span tree is the one record of a solve, and the
// solver series land only then. The relprobe_* counters are the live
// mid-solve signal.
type SolveMetrics struct {
	spans     *metrics.Counter
	solves    *metrics.Counter
	wall      *metrics.Histogram
	iters     *metrics.Counter
	residual  *metrics.Gauge
	attempts  *metrics.Counter
	winners   *metrics.Counter
	outcomes  *metrics.Counter
	railWarns *metrics.Counter
	lumped    *metrics.Counter
	lumpRatio *metrics.Gauge
}

// NewSolveMetrics registers the relscope solver-metric families on reg
// (idempotently — registries dedupe by name).
func NewSolveMetrics(reg *metrics.Registry) *SolveMetrics {
	return &SolveMetrics{
		spans: reg.NewCounter("relscope_spans_total",
			"Solver telemetry spans opened.", "model"),
		solves: reg.NewCounter("relscope_solves_total",
			"Model solves started (root spans).", "model"),
		wall: reg.NewHistogram("relscope_solver_wall_seconds",
			"Wall time of solver spans.", nil, "solver", "model"),
		iters: reg.NewCounter("relscope_solver_iterations_total",
			"Iterations recorded by iterative solvers.", "solver", "model"),
		residual: reg.NewGauge("relscope_solver_last_residual",
			"Most recent convergence residual per solver.", "solver", "model"),
		attempts: reg.NewCounter("relscope_chain_attempts_total",
			"Fallback-chain attempts by failure class (class \"none\" is success).", "chain", "method", "class", "model"),
		winners: reg.NewCounter("relscope_chain_decided_total",
			"Fallback chains decided, by winning method (winner \"\" means exhausted).", "chain", "winner", "model"),
		outcomes: reg.NewCounter("relscope_guard_outcomes_total",
			"Guard outcomes observed on spans: canceled, deadline, panic, exhausted.", "outcome", "model"),
		railWarns: reg.NewCounter("relscope_rail_warnings_total",
			"Warn-mode numerical guard-rail violations by check site.", "op", "model"),
		lumped: reg.NewCounter("relscope_lump_applied_total",
			"Automatic lumping pre-passes applied before a solve.", "model"),
		lumpRatio: reg.NewGauge("relscope_lump_reduction_ratio",
			"Most recent state-space reduction ratio (states/blocks) from automatic lumping.", "model"),
	}
}

// Observe folds one finished trace, labeling every sample with model.
// Each child of root is one solve; root itself (the trace's name and
// request-level attributes such as corr) is not a solver span.
func (m *SolveMetrics) Observe(model string, root *Span) {
	for _, s := range root.Children {
		m.solves.Inc(model)
		m.observe(model, "", s)
	}
}

// observe folds one span and its subtree. chain is the enclosing
// guard.chain name, inherited so attempt spans can label their metrics.
// Attributes are read in the order they were recorded; a span's own
// iterations come after its children's, as they do in a fixed-point
// sweep over sub-solves.
func (m *SolveMetrics) observe(model, chain string, s *Span) {
	m.spans.Inc(model)
	var method, solver string
	for _, a := range s.Attrs {
		if a.Key == "lump_ratio" && a.kind == kindFloat {
			// The one float the fold aggregates: a "relstruct.lump" span
			// announcing an applied state-space reduction.
			m.lumped.Inc(model)
			m.lumpRatio.Set(a.num, model)
			continue
		}
		if a.kind != kindString {
			continue
		}
		v := a.str
		switch a.Key {
		case "solver":
			solver = v
		case "chain":
			chain = v
		case "method":
			method = v
		case "failure_class":
			m.attempts.Inc(chain, method, v, model)
		case "winner":
			m.winners.Inc(chain, v, model)
		case "outcome":
			if v == "exhausted" {
				// A chain span reporting exhaustion also sets winner="";
				// count it under both surfaces.
				m.winners.Inc(chain, "", model)
			}
			m.outcomes.Inc(v, model)
		case "guard_warning_op":
			m.railWarns.Inc(v, model)
		}
	}
	for _, c := range s.Children {
		m.observe(model, chain, c)
	}
	if n := len(s.Iters); n > 0 {
		label := solver
		if label == "" {
			label = s.Name
		}
		m.iters.Add(float64(n), label, model)
		m.residual.Set(s.Iters[n-1].Residual, label, model)
	}
	// Purely structural spans (measure:*, modelio.solve) only count
	// toward relscope_spans_total.
	if solver != "" {
		m.wall.Observe(float64(s.WallNS)/1e9, solver, model)
	}
}

// MetricsRecorder is a live Recorder over SolveMetrics, for callers that
// compose recorders with Multi: it traces each top-level span on its own
// and folds that trace when the span ends. A caller that already holds
// the solve's Trace should call SolveMetrics.Observe on it instead.
type MetricsRecorder struct {
	m     *SolveMetrics
	model string
}

// NewMetricsRecorder registers the relscope solver-metric families on reg
// and returns a recorder that labels every sample with the given model
// name.
func NewMetricsRecorder(reg *metrics.Registry, model string) *MetricsRecorder {
	return &MetricsRecorder{m: NewSolveMetrics(reg), model: model}
}

// Enabled implements Recorder.
func (r *MetricsRecorder) Enabled() bool { return true }

// Span implements Recorder: the root of a new solve, traced on its own.
func (r *MetricsRecorder) Span(name string, attrs ...Attr) Recorder {
	t := NewTrace(r.model)
	return foldOnEnd{Recorder: t.Span(name, attrs...), t: t, r: r}
}

// End, Iter, IterLabel, and Set on the recorder itself (outside any span)
// have no aggregate meaning and are ignored.
func (r *MetricsRecorder) End()                           {}
func (r *MetricsRecorder) Iter(int, float64)              {}
func (r *MetricsRecorder) IterLabel(int, float64, string) {}
func (r *MetricsRecorder) Set(...Attr)                    {}

// foldOnEnd scopes one top-level span of a MetricsRecorder; ending it
// folds the span's trace.
type foldOnEnd struct {
	Recorder
	t *Trace
	r *MetricsRecorder
}

func (f foldOnEnd) End() {
	f.Recorder.End()
	f.r.m.Observe(f.r.model, f.t.Finish())
}
