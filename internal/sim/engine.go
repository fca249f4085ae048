// Package sim provides a small discrete-event simulation engine plus
// model-specific simulators (CTMC paths, alternating-renewal component
// processes) and replication statistics. The simulator is the repository's
// independent oracle: every analytic solver is cross-validated against it
// in tests, mirroring how the tutorial's models were validated against
// measurement data.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
)

// Handler is a scheduled event action. It runs at its scheduled time and
// may schedule further events.
type Handler func()

type event struct {
	time float64
	seq  uint64
	fn   Handler
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time { //numvet:allow float-eq heap tie-break on exact equality is intentional
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	out := old[n-1]
	*h = old[:n-1]
	return out
}

// Engine is a sequential discrete-event simulator. The zero value is not
// usable; create engines with NewEngine.
type Engine struct {
	now   float64
	queue eventHeap
	seq   uint64
}

// ErrPastEvent is returned when an event is scheduled before current time.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// NewEngine returns an engine at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulation time.
func (e *Engine) Now() float64 { return e.now }

// Schedule enqueues fn to run after delay ≥ 0.
func (e *Engine) Schedule(delay float64, fn Handler) error {
	if delay < 0 || math.IsNaN(delay) {
		return fmt.Errorf("%w: delay %g", ErrPastEvent, delay)
	}
	e.seq++
	heap.Push(&e.queue, event{time: e.now + delay, seq: e.seq, fn: fn})
	return nil
}

// Run executes events in time order until the queue empties or until the
// clock passes `until` (events beyond it remain queued and the clock is
// left at `until`).
func (e *Engine) Run(until float64) {
	for len(e.queue) > 0 {
		if e.queue[0].time > until {
			e.now = until
			return
		}
		ev := heap.Pop(&e.queue).(event)
		e.now = ev.time
		ev.fn()
	}
	if e.now < until {
		e.now = until
	}
}
