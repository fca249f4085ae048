package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Process-wide relprobe counters, in the default metrics registry scraped
// at /metrics. They advance only while a Trace is recording.
var (
	ctrTraces = metrics.Default().NewCounter("relprobe_traces_total", "Traces started.")
	ctrSpans  = metrics.Default().NewCounter("relprobe_spans_total", "Trace spans opened.")
	ctrIters  = metrics.Default().NewCounter("relprobe_iterations_total", "Iterations recorded on traces.")
)

// TraceSchemaVersion identifies the span-tree JSON schema. It is stamped
// on the root span of every trace so `-trace-json` consumers and the
// reldash dashboard can detect the document shape instead of guessing.
// Version 2 added the explicit wall_ms duration alongside wall_ns.
const TraceSchemaVersion = 2

// IterPoint is one recorded iteration of an iterative solve.
type IterPoint struct {
	// N is the 1-based iteration number.
	N int `json:"n"`
	// Residual is the convergence measure at that iteration (solver
	// specific: L∞ sweep delta, Poisson tail mass, fixed-point delta).
	Residual float64 `json:"residual"`
	// Label optionally names what dominated the iteration.
	Label string `json:"label,omitempty"`
}

// Span is one node of a recorded trace tree. Exported fields define the
// JSON trace schema documented in README.md.
type Span struct {
	// Name identifies the operation ("markov.steadystate", "linalg.sor", …).
	Name string `json:"name"`
	// Version is the trace schema version, stamped on root spans only
	// (see TraceSchemaVersion); zero on child spans.
	Version int `json:"version,omitempty"`
	// WallNS is the span's wall-clock duration in nanoseconds.
	WallNS int64 `json:"wall_ns"`
	// Attrs holds the typed attributes in insertion order.
	Attrs []Attr `json:"-"`
	// Iters holds per-iteration convergence records.
	Iters []IterPoint `json:"iters,omitempty"`
	// Children are nested spans in start order.
	Children []*Span `json:"children,omitempty"`

	start time.Time
	open  bool
}

// spanJSON is the marshaled shape of a Span; attrs become a JSON object
// (keys sorted by encoding/json for deterministic output).
type spanJSON struct {
	Name     string         `json:"name"`
	Version  int            `json:"version,omitempty"`
	WallNS   int64          `json:"wall_ns"`
	WallMS   float64        `json:"wall_ms"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Iters    []IterPoint    `json:"iters,omitempty"`
	Children []*Span        `json:"children,omitempty"`
}

// MarshalJSON renders the span with attributes as an object. The duration
// appears twice on purpose: wall_ns is the exact integer measurement,
// wall_ms the unit-explicit value dashboards display without guessing.
func (s *Span) MarshalJSON() ([]byte, error) {
	out := spanJSON{
		Name:     s.Name,
		Version:  s.Version,
		WallNS:   s.WallNS,
		WallMS:   float64(s.WallNS) / 1e6,
		Iters:    s.Iters,
		Children: s.Children,
	}
	if len(s.Attrs) > 0 {
		out.Attrs = make(map[string]any, len(s.Attrs))
		for _, a := range s.Attrs {
			out.Attrs[a.Key] = a.Value()
		}
	}
	return json.Marshal(out)
}

// Attr returns the value of the named attribute and whether it is set.
func (s *Span) Attr(key string) (any, bool) {
	// Last write wins, matching JSON object semantics.
	for i := len(s.Attrs) - 1; i >= 0; i-- {
		if s.Attrs[i].Key == key {
			return s.Attrs[i].Value(), true
		}
	}
	return nil, false
}

// Walk visits the span and every descendant in depth-first order.
func (s *Span) Walk(visit func(*Span)) {
	visit(s)
	for _, c := range s.Children {
		c.Walk(visit)
	}
}

// Trace is a concrete Recorder that collects spans into a tree. The zero
// value is not usable; construct with NewTrace. All methods are
// mutex-guarded so parallel sweeps may share one trace.
type Trace struct {
	mu   sync.Mutex
	root *Span
}

// NewTrace starts a trace whose root span carries the given name (the
// model or experiment being solved).
func NewTrace(rootName string) *Trace {
	ctrTraces.Add(1)
	ctrSpans.Add(1)
	return &Trace{root: &Span{Name: rootName, Version: TraceSchemaVersion, start: time.Now(), open: true}}
}

// Finish closes the root span (and any still-open descendants) and
// returns it. Idempotent; Write* and Summary call it implicitly.
func (t *Trace) Finish() *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.finishLocked()
	return t.root
}

func (t *Trace) finishLocked() {
	now := time.Now()
	t.root.Walk(func(s *Span) {
		if s.open {
			s.WallNS = now.Sub(s.start).Nanoseconds()
			s.open = false
		}
	})
}

// Root returns the root span without finalizing open spans.
func (t *Trace) Root() *Span { return t.root }

// OpenPath returns the names of the currently open span chain (outermost
// first), following the deepest open child at each level. It is what a
// panic-recovery boundary attaches to an internal error so the failure
// names the solver that was running.
func (t *Trace) OpenPath() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return openPathFrom(t.root)
}

func openPathFrom(s *Span) []string {
	if s == nil || !s.open {
		return nil
	}
	path := []string{s.Name}
	// The most recently opened child that is still open is the active one.
	for i := len(s.Children) - 1; i >= 0; i-- {
		if sub := openPathFrom(s.Children[i]); sub != nil {
			return append(path, sub...)
		}
	}
	return path
}

// --- Recorder implementation (scoped at the root span) ---

// Enabled implements Recorder.
func (t *Trace) Enabled() bool { return true }

// Span implements Recorder: it opens a child of the root span.
func (t *Trace) Span(name string, attrs ...Attr) Recorder {
	return t.openSpan(t.root, name, attrs)
}

// End implements Recorder by closing the root span.
func (t *Trace) End() { t.Finish() }

// Iter implements Recorder on the root span.
func (t *Trace) Iter(n int, residual float64) { t.addIter(t.root, n, residual, "") }

// IterLabel implements Recorder on the root span.
func (t *Trace) IterLabel(n int, residual float64, label string) {
	t.addIter(t.root, n, residual, label)
}

// Set implements Recorder on the root span.
func (t *Trace) Set(attrs ...Attr) { t.setAttrs(t.root, attrs) }

func (t *Trace) openSpan(parent *Span, name string, attrs []Attr) Recorder {
	t.mu.Lock()
	defer t.mu.Unlock()
	ctrSpans.Add(1)
	s := &Span{Name: name, Attrs: attrs, start: time.Now(), open: true}
	parent.Children = append(parent.Children, s)
	return &spanRec{t: t, s: s}
}

func (t *Trace) endSpan(s *Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !s.open {
		return
	}
	s.WallNS = time.Since(s.start).Nanoseconds()
	s.open = false
}

func (t *Trace) addIter(s *Span, n int, residual float64, label string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ctrIters.Add(1)
	s.Iters = append(s.Iters, IterPoint{N: n, Residual: residual, Label: label})
}

func (t *Trace) setAttrs(s *Span, attrs []Attr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.Attrs = append(s.Attrs, attrs...)
}

// spanRec is a Recorder scoped to one span of a Trace.
type spanRec struct {
	t *Trace
	s *Span
}

func (r *spanRec) Enabled() bool { return true }
func (r *spanRec) Span(name string, attrs ...Attr) Recorder {
	return r.t.openSpan(r.s, name, attrs)
}
func (r *spanRec) End()                  { r.t.endSpan(r.s) }
func (r *spanRec) Iter(n int, d float64) { r.t.addIter(r.s, n, d, "") }
func (r *spanRec) Set(attrs ...Attr)     { r.t.setAttrs(r.s, attrs) }
func (r *spanRec) IterLabel(n int, d float64, label string) {
	r.t.addIter(r.s, n, d, label)
}

// OpenPath reports the open span chain from the trace root through (and
// below) this recorder's span. See Trace.OpenPath.
func (r *spanRec) OpenPath() []string { return r.t.OpenPath() }

// --- export ---

// WriteText finalizes the trace and writes a human-readable indented tree.
func (t *Trace) WriteText(w io.Writer) error {
	root := t.Finish()
	return writeTextSpan(w, root, 0)
}

func writeTextSpan(w io.Writer, s *Span, depth int) error {
	for i := 0; i < depth; i++ {
		if _, err := io.WriteString(w, "  "); err != nil {
			return err
		}
	}
	line := fmt.Sprintf("%s [%s]", s.Name, time.Duration(s.WallNS))
	for _, a := range s.Attrs {
		line += fmt.Sprintf(" %s=%v", a.Key, a.Value())
	}
	if n := len(s.Iters); n > 0 {
		first, last := s.Iters[0], s.Iters[n-1]
		line += fmt.Sprintf(" iters=%d (resid %.3g → %.3g)", n, first.Residual, last.Residual)
	}
	if _, err := fmt.Fprintln(w, line); err != nil {
		return err
	}
	for _, c := range s.Children {
		if err := writeTextSpan(w, c, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// Summary condenses a trace for benchmark records and -metrics output.
type Summary struct {
	// Spans is the total span count including the root.
	Spans int `json:"spans"`
	// Iterations sums the recorded iteration events over all spans.
	Iterations int `json:"iterations"`
	// WallNS is the root span's wall time.
	WallNS int64 `json:"wall_ns"`
	// Solver names the dominant solver: the "solver" attribute of the
	// span that recorded the most iterations, falling back to the
	// longest-running span carrying one.
	Solver string `json:"solver,omitempty"`
}

// Summary finalizes the trace and condenses it.
func (t *Trace) Summary() Summary {
	root := t.Finish()
	sum := Summary{WallNS: root.WallNS}
	type cand struct {
		solver string
		iters  int
		wallNS int64
	}
	var cands []cand
	root.Walk(func(s *Span) {
		sum.Spans++
		sum.Iterations += len(s.Iters)
		if v, ok := s.Attr("solver"); ok {
			if name, ok := v.(string); ok {
				cands = append(cands, cand{solver: name, iters: len(s.Iters), wallNS: s.WallNS})
			}
		}
	})
	if len(cands) > 0 {
		sort.SliceStable(cands, func(i, j int) bool {
			if cands[i].iters != cands[j].iters {
				return cands[i].iters > cands[j].iters
			}
			return cands[i].wallNS > cands[j].wallNS
		})
		sum.Solver = cands[0].solver
	}
	return sum
}
