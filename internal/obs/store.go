package obs

import (
	"strconv"
	"sync"
	"time"

	"repro/internal/failpoint"
)

// fpStorePut is the TraceStore ingestion failpoint: an injected error
// drops the record (observability loss must never fail a solve), a panic
// exercises the serve layer's per-request isolation.
const fpStorePut = "obs.store.put"

// TraceRecord is one completed solve (or analyze) request retained by a
// TraceStore. The metadata fields — model, solver, outcome, wall time —
// exist so the dashboard can list and filter traces without walking span
// trees; Root carries the full nested span tree for the detail view and
// is omitted from List results to keep them cheap.
type TraceRecord struct {
	// ID is the store-assigned stable identifier ("t1", "t2", …).
	ID string `json:"id"`
	// Seq is the store-assigned monotone sequence number behind ID.
	Seq uint64 `json:"seq"`
	// Corr is the request's correlation ID, joining this record to its
	// wide-event log line, slog entries, and job records.
	Corr string `json:"corr,omitempty"`
	// Model names the solved model (the spec's name field).
	Model string `json:"model"`
	// Endpoint says which request produced the record ("solve", "analyze").
	Endpoint string `json:"endpoint"`
	// Solver is the dominant solver from the trace summary.
	Solver string `json:"solver,omitempty"`
	// Outcome classifies how the request ended: "ok", "error", "canceled",
	// or "deadline".
	Outcome string `json:"outcome"`
	// Error carries the failure message for non-ok outcomes.
	Error string `json:"error,omitempty"`
	// Start is when the recorded work began: a traced solve's start, or
	// an untraced request's arrival.
	Start time.Time `json:"start"`
	// WallMS is the recorded work's wall time in milliseconds, so the
	// record covers [Start, Start+WallMS].
	WallMS float64 `json:"wall_ms"`
	// Spans and Iterations summarize the trace (see Summary).
	Spans      int `json:"spans,omitempty"`
	Iterations int `json:"iterations,omitempty"`
	// Root is the full span tree; nil for requests that do not solve
	// (analyze) and stripped from List results.
	Root *Span `json:"trace,omitempty"`
}

// RecordFromTrace condenses a finished Trace into a TraceRecord carrying
// the span tree plus its summary fields, with Start and WallMS the
// trace's own. The caller sets Outcome and Error; Put assigns ID and Seq.
func RecordFromTrace(tr *Trace, model, endpoint string) TraceRecord {
	sum := tr.Summary()
	return TraceRecord{
		Model:      model,
		Endpoint:   endpoint,
		Solver:     sum.Solver,
		Start:      tr.Root().start,
		Spans:      sum.Spans,
		Iterations: sum.Iterations,
		WallMS:     float64(sum.WallNS) / 1e6,
		Root:       tr.Root(),
	}
}

// TraceFilter selects records from a TraceStore. Empty fields match
// everything; Limit bounds the result count (0 means no bound).
type TraceFilter struct {
	Model   string
	Solver  string
	Outcome string
	Corr    string
	Limit   int
}

func (f TraceFilter) matches(rec *TraceRecord) bool {
	if f.Model != "" && rec.Model != f.Model {
		return false
	}
	if f.Corr != "" && rec.Corr != f.Corr {
		return false
	}
	if f.Solver != "" && rec.Solver != f.Solver {
		return false
	}
	if f.Outcome != "" && rec.Outcome != f.Outcome {
		return false
	}
	return true
}

// TraceStore is a bounded ring buffer of completed TraceRecords. When
// full, Put evicts the oldest record; IDs stay stable for a record's
// lifetime, so a dashboard link goes 404 (rather than showing the wrong
// trace) once its record ages out. All methods are safe for concurrent
// use.
type TraceStore struct {
	mu    sync.RWMutex
	buf   []TraceRecord
	first int // index of the oldest record
	n     int
	seq   uint64
}

// NewTraceStore builds a store retaining up to capacity records
// (minimum 1).
func NewTraceStore(capacity int) *TraceStore {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceStore{buf: make([]TraceRecord, capacity)}
}

// Put assigns the record an ID and sequence number, stores it (evicting
// the oldest record when at capacity), and returns the ID. An empty
// Outcome is normalized to "ok". Under an armed obs.store.put failpoint
// the record is dropped and Put returns "" — losing a trace must never
// lose the solve.
func (s *TraceStore) Put(rec TraceRecord) string {
	if err := failpoint.Inject(fpStorePut); err != nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	rec.Seq = s.seq
	rec.ID = "t" + strconv.FormatUint(s.seq, 10)
	if rec.Outcome == "" {
		rec.Outcome = "ok"
	}
	if s.n == len(s.buf) {
		s.buf[s.first] = rec
		s.first = (s.first + 1) % len(s.buf)
	} else {
		s.buf[(s.first+s.n)%len(s.buf)] = rec
		s.n++
	}
	return rec.ID
}

// Get returns the record with the given ID, or false when it was never
// stored or has been evicted.
func (s *TraceStore) Get(id string) (TraceRecord, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i := 0; i < s.n; i++ {
		rec := &s.buf[(s.first+i)%len(s.buf)]
		if rec.ID == id {
			return *rec, true
		}
	}
	return TraceRecord{}, false
}

// List returns matching records newest-first with Root stripped (the
// list is metadata; fetch the span tree with Get).
func (s *TraceStore) List(f TraceFilter) []TraceRecord {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]TraceRecord, 0, s.n)
	for i := s.n - 1; i >= 0; i-- {
		rec := &s.buf[(s.first+i)%len(s.buf)]
		if !f.matches(rec) {
			continue
		}
		cp := *rec
		cp.Root = nil
		out = append(out, cp)
		if f.Limit > 0 && len(out) == f.Limit {
			break
		}
	}
	return out
}

// Len reports how many records are currently retained.
func (s *TraceStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.n
}

// Cap reports the store's fixed capacity.
func (s *TraceStore) Cap() int {
	return len(s.buf)
}
