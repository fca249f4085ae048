// Package metrics is the aggregate-telemetry layer ("relscope"): a
// concurrent registry of counters, gauges, and fixed-bucket histograms
// with label support, exposed in Prometheus text exposition format v0.0.4
// (see expose.go). Where internal/obs records one solve as a tree of
// spans, this package accumulates *across* solves — requests served,
// iterations spent per solver, wall-time distributions — so a long-running
// `relcli serve` process can be scraped like any other service.
//
// The package is stdlib-only and sits below internal/obs (obs bridges
// Recorder events into a Registry; this package knows nothing about
// spans). All operations are safe for concurrent use.
//
// Misuse — observing with the wrong number of label values, or
// re-registering a name with a different kind or label set — never
// panics: the observation is dropped and counted in the registry's
// `relscope_metrics_dropped_total` self-metric, so metric plumbing can
// never fail a solve.
package metrics

import (
	"math"
	"sort"
	"sync"
)

// kind discriminates the metric families a Registry can hold.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled time series inside a family. Counters and gauges
// use val; histograms use buckets/sum/count. The family mutex guards all
// fields.
type series struct {
	labelValues []string
	val         float64
	buckets     []uint64
	sum         float64
	count       uint64
}

// family is one named metric with a fixed kind, help string, label names,
// and (for histograms) bucket upper bounds.
type family struct {
	name   string
	help   string
	kind   kind
	labels []string
	bounds []float64 // ascending; +Inf is implicit

	mu     sync.Mutex
	series map[string]*series
}

// seriesFor returns (creating if needed) the series for the given label
// values. Callers must hold f.mu. A label-arity mismatch returns nil.
func (f *family) seriesFor(labelValues []string) *series {
	if len(labelValues) != len(f.labels) {
		return nil
	}
	key := joinKey(labelValues)
	s, ok := f.series[key]
	if !ok {
		s = &series{labelValues: append([]string(nil), labelValues...)}
		if f.kind == kindHistogram {
			s.buckets = make([]uint64, len(f.bounds))
		}
		f.series[key] = s
	}
	return s
}

// joinKey builds a map key from label values. The unit separator (0x1f)
// never appears in sane label values; a collision would merely merge two
// series.
func joinKey(values []string) string {
	switch len(values) {
	case 0:
		return ""
	case 1:
		return values[0]
	}
	n := len(values) - 1
	for _, v := range values {
		n += len(v)
	}
	b := make([]byte, 0, n)
	for i, v := range values {
		if i > 0 {
			b = append(b, 0x1f)
		}
		b = append(b, v...)
	}
	return string(b)
}

// Registry holds metric families and renders them for scraping. The zero
// value is not usable; construct with NewRegistry or use Default.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family

	dropped *family // self-metric counting dropped observations
}

// NewRegistry returns an empty registry carrying only the
// relscope_metrics_dropped_total self-metric.
func NewRegistry() *Registry {
	r := &Registry{families: make(map[string]*family)}
	r.dropped = &family{
		name:   "relscope_metrics_dropped_total",
		help:   "Observations dropped due to metric misuse (label arity or registration conflicts).",
		kind:   kindCounter,
		series: make(map[string]*series),
	}
	r.families[r.dropped.name] = r.dropped
	return r
}

var defaultRegistry = NewRegistry()

// Default returns the shared process-wide registry. The relprobe.*
// counters in internal/obs and the relcli debug/serve endpoints all use
// it, so every surface reports the same numbers.
func Default() *Registry { return defaultRegistry }

// drop records one discarded observation.
func (r *Registry) drop() {
	r.dropped.mu.Lock()
	if s := r.dropped.seriesFor(nil); s != nil {
		s.val++
	}
	r.dropped.mu.Unlock()
}

// register returns the family for name, creating it if absent. A
// signature conflict (same name, different kind/labels/buckets) returns
// nil and bumps the dropped counter; the caller's handle then discards
// every observation rather than corrupting the existing family.
func (r *Registry) register(name, help string, k kind, labels []string, bounds []float64) *family {
	r.mu.Lock()
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name:   name,
			help:   help,
			kind:   k,
			labels: append([]string(nil), labels...),
			bounds: append([]float64(nil), bounds...),
			series: make(map[string]*series),
		}
		r.families[name] = f
		r.mu.Unlock()
		return f
	}
	r.mu.Unlock()
	if f.kind != k || !equalStrings(f.labels, labels) || !equalFloats(f.bounds, bounds) {
		r.drop()
		return nil
	}
	return f
}

// equalFloats compares bucket-bound slices by exact bit pattern; bounds
// are configuration constants, never computed values, so == is the right
// comparison here.
func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] { //numvet:allow float-eq bucket bounds are exact configuration constants
			return false
		}
	}
	return true
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter is a monotonically increasing metric family handle.
type Counter struct {
	reg *Registry
	f   *family // nil when registration conflicted
}

// NewCounter registers (or fetches) a counter family. labelNames fixes
// the label schema; every Add/Inc must supply exactly that many values.
func (r *Registry) NewCounter(name, help string, labelNames ...string) *Counter {
	return &Counter{reg: r, f: r.register(name, help, kindCounter, labelNames, nil)}
}

// Add increments the series selected by labelValues. Negative deltas and
// label-arity mismatches are dropped.
func (c *Counter) Add(delta float64, labelValues ...string) {
	if c.f == nil || delta < 0 {
		c.reg.drop()
		return
	}
	c.f.mu.Lock()
	s := c.f.seriesFor(labelValues)
	if s == nil {
		c.f.mu.Unlock()
		c.reg.drop()
		return
	}
	s.val += delta
	c.f.mu.Unlock()
}

// Inc adds one.
func (c *Counter) Inc(labelValues ...string) { c.Add(1, labelValues...) }

// Value returns the current value of the selected series (0 when the
// series does not exist yet).
func (c *Counter) Value(labelValues ...string) float64 {
	if c.f == nil {
		return 0
	}
	c.f.mu.Lock()
	defer c.f.mu.Unlock()
	if s, ok := c.f.series[joinKey(labelValues)]; ok && len(labelValues) == len(c.f.labels) {
		return s.val
	}
	return 0
}

// Total returns the sum over every series in the family — the rollup a
// dashboard wants when the label split does not matter.
func (c *Counter) Total() float64 {
	if c.f == nil {
		return 0
	}
	c.f.mu.Lock()
	defer c.f.mu.Unlock()
	// Sum in key order: series is a map.
	keys := make([]string, 0, len(c.f.series))
	for k := range c.f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sum float64
	for _, k := range keys {
		sum += c.f.series[k].val
	}
	return sum
}

// Gauge is a metric family handle whose series can move both ways.
type Gauge struct {
	reg *Registry
	f   *family
}

// NewGauge registers (or fetches) a gauge family.
func (r *Registry) NewGauge(name, help string, labelNames ...string) *Gauge {
	return &Gauge{reg: r, f: r.register(name, help, kindGauge, labelNames, nil)}
}

// Set stores v on the selected series.
func (g *Gauge) Set(v float64, labelValues ...string) {
	if g.f == nil {
		g.reg.drop()
		return
	}
	g.f.mu.Lock()
	s := g.f.seriesFor(labelValues)
	if s == nil {
		g.f.mu.Unlock()
		g.reg.drop()
		return
	}
	s.val = v
	g.f.mu.Unlock()
}

// Add shifts the selected series by delta (negative allowed).
func (g *Gauge) Add(delta float64, labelValues ...string) {
	if g.f == nil {
		g.reg.drop()
		return
	}
	g.f.mu.Lock()
	s := g.f.seriesFor(labelValues)
	if s == nil {
		g.f.mu.Unlock()
		g.reg.drop()
		return
	}
	s.val += delta
	g.f.mu.Unlock()
}

// Value returns the current value of the selected series.
func (g *Gauge) Value(labelValues ...string) float64 {
	if g.f == nil {
		return 0
	}
	g.f.mu.Lock()
	defer g.f.mu.Unlock()
	if s, ok := g.f.series[joinKey(labelValues)]; ok && len(labelValues) == len(g.f.labels) {
		return s.val
	}
	return 0
}

// Histogram is a fixed-bucket histogram family handle.
type Histogram struct {
	reg *Registry
	f   *family
}

// DefBuckets are latency buckets in seconds spanning the repo's solver
// range: microsecond GTH solves of tiny chains up to multi-second sweeps.
func DefBuckets() []float64 {
	return []float64{1e-5, 1e-4, 1e-3, 5e-3, 0.025, 0.1, 0.5, 2.5, 10}
}

// NewHistogram registers (or fetches) a histogram family with the given
// ascending bucket upper bounds (+Inf is implicit; nil means DefBuckets).
func (r *Registry) NewHistogram(name, help string, buckets []float64, labelNames ...string) *Histogram {
	if buckets == nil {
		buckets = DefBuckets()
	}
	return &Histogram{reg: r, f: r.register(name, help, kindHistogram, labelNames, buckets)}
}

// Observe records v into the selected series.
func (h *Histogram) Observe(v float64, labelValues ...string) {
	if h.f == nil {
		h.reg.drop()
		return
	}
	h.f.mu.Lock()
	s := h.f.seriesFor(labelValues)
	if s == nil {
		h.f.mu.Unlock()
		h.reg.drop()
		return
	}
	for i, ub := range h.f.bounds {
		if v <= ub {
			s.buckets[i]++
		}
	}
	s.sum += v
	s.count++
	h.f.mu.Unlock()
}

// Quantile estimates the q-quantile (q in [0,1]) of the selected series
// from its cumulative bucket counts: the answer is the upper bound of the
// first bucket whose cumulative count reaches q·total — a conservative
// (never underestimating) figure, which is what backpressure hints like
// Retry-After want. Observations beyond the last finite bound are
// attributed to the last finite bound. A series with no observations (or
// a mis-labeled lookup) reports NaN.
func (h *Histogram) Quantile(q float64, labelValues ...string) float64 {
	if h.f == nil || q < 0 || q > 1 {
		return math.NaN()
	}
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	s, ok := h.f.series[joinKey(labelValues)]
	if !ok || len(labelValues) != len(h.f.labels) || s.count == 0 || len(h.f.bounds) == 0 {
		return math.NaN()
	}
	rank := q * float64(s.count)
	for i, cum := range s.buckets {
		if float64(cum) >= rank {
			return h.f.bounds[i]
		}
	}
	return h.f.bounds[len(h.f.bounds)-1]
}
