package main

import (
	"runtime"
	"time"
)

// spanRec is one span the benchmark recorded around a call into a layer.
// Spans of one replayed request share Req.
type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine. When off, begin and end cost a branch, which is what the
// tracing-overhead measurement compares against.
type tracer struct {
	on    bool
	epoch time.Time
	spans []spanRec
}

func newTracer() *tracer { return &tracer{on: true, epoch: time.Now()} }

// begin opens a span and returns its ID (0 when tracing is off).
func (t *tracer) begin(name string, parent, req int) int {
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, spanRec{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(t.epoch))})
	return len(t.spans)
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if id > 0 {
		t.spans[id-1].End = int64(time.Since(t.epoch))
	}
}

// layerTime is one span name's accumulated self time.
type layerTime struct {
	self  time.Duration
	calls int
}

// meanUS is the mean self time per call in microseconds.
func (l *layerTime) meanUS() float64 {
	if l == nil || l.calls == 0 {
		return 0
	}
	return float64(l.self.Nanoseconds()) / 1e3 / float64(l.calls)
}

// selfTimes folds spans into per-name self times: a span's duration minus
// the part its child spans cover.
func selfTimes(spans []spanRec) map[string]*layerTime {
	child := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layerTime{}
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.self += time.Duration(s.End - s.Start - child[s.ID])
		lt.calls++
	}
	return out
}

// allocsPer returns the mean heap allocations of fn over n calls.
func allocsPer(n int, fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}
