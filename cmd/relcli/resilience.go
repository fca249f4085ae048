package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"net/http"
	"sync"
	"time"

	"repro/internal/failpoint"
	"repro/internal/guard"
	"repro/internal/jobs"
	"repro/internal/modelio"
)

// admitVerdict classifies the outcome of asking for a solve slot.
type admitVerdict int

const (
	// admitOK: a slot was acquired; the caller must invoke the returned
	// release function exactly once.
	admitOK admitVerdict = iota
	// admitShed: both the solve slots and the wait queue are full — the
	// server is past saturation and sheds the request immediately (429).
	admitShed
	// admitTimeout: the request queued but no slot freed within the wait
	// budget (503).
	admitTimeout
	// admitCanceled: the client went away while queued.
	admitCanceled
)

// admission is the bounded two-stage admission controller in front of
// the solve pipeline: up to `inflight` requests solve concurrently, up
// to `depth` more wait in a queue for at most `wait`, and everything
// beyond that is shed immediately. Shedding at the door keeps the
// tail latency of admitted requests bounded — the alternative (an
// unbounded accept queue) converts overload into timeouts for everyone.
type admission struct {
	sem   chan struct{}
	queue chan struct{}
	wait  time.Duration
}

func newAdmission(inflight, depth int, wait time.Duration) *admission {
	return &admission{
		sem:   make(chan struct{}, inflight),
		queue: make(chan struct{}, depth),
		wait:  wait,
	}
}

// acquire asks for a solve slot. On admitOK the returned release frees
// the slot; for every other verdict release is nil.
func (a *admission) acquire(ctx context.Context) (func(), admitVerdict) {
	select {
	case a.sem <- struct{}{}:
		return a.release, admitOK
	default:
	}
	select {
	case a.queue <- struct{}{}:
	default:
		return nil, admitShed
	}
	defer func() { <-a.queue }()
	timer := time.NewTimer(a.wait)
	defer timer.Stop()
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case a.sem <- struct{}{}:
		return a.release, admitOK
	case <-timer.C:
		return nil, admitTimeout
	case <-done:
		return nil, admitCanceled
	}
}

func (a *admission) release() { <-a.sem }

// queueLen reports how many requests are currently waiting.
func (a *admission) queueLen() int { return len(a.queue) }

// queueCap reports the wait-queue capacity.
func (a *admission) queueCap() int { return cap(a.queue) }

// Breaker states. A breaker guards one model class (the spec type): K
// consecutive solver failures open it, after which requests of that class
// short-circuit to degraded bounds-only answers (or 503 when the class
// has no bounding path) until the cooldown elapses and a single half-open
// probe succeeds.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

var breakerStateNames = [...]string{"closed", "open", "half-open"}

// breakerSet holds the per-model-class circuit breakers.
type breakerSet struct {
	mu        sync.Mutex
	threshold int           // consecutive failures to open
	cooldown  time.Duration // open duration before half-open probing
	classes   map[string]*breakerClass
	onOpen    func(class string) // open-transition hook; runs under mu, must not re-enter
	now       func() time.Time   // injectable clock for tests
}

type breakerClass struct {
	state     int
	fails     int
	openUntil time.Time
	probing   bool // a half-open probe is in flight
}

func newBreakerSet(threshold int, cooldown time.Duration, onOpen func(string)) *breakerSet {
	return &breakerSet{
		threshold: threshold,
		cooldown:  cooldown,
		classes:   make(map[string]*breakerClass),
		onOpen:    onOpen,
		now:       time.Now,
	}
}

func (b *breakerSet) class(name string) *breakerClass {
	c := b.classes[name]
	if c == nil {
		c = &breakerClass{}
		b.classes[name] = c
	}
	return c
}

// allow reports whether a request of the class may run the exact solve
// path. probe marks the single half-open trial request whose outcome
// decides reopen-vs-close; the caller must pass it back to record.
func (b *breakerSet) allow(name string) (ok, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.class(name)
	switch c.state {
	case breakerClosed:
		return true, false
	case breakerOpen:
		if b.now().Before(c.openUntil) {
			return false, false
		}
		c.state = breakerHalfOpen
		c.probing = true
		return true, true
	default: // half-open
		if c.probing {
			return false, false
		}
		c.probing = true
		return true, true
	}
}

// record feeds one exact-path verdict back and releases the probe: a
// success closes the class, a solver failure charges it, and a request
// that says nothing about the solver (a document fault, a cancellation)
// changes nothing else, so a half-open class waits for the next probe.
func (b *breakerSet) record(name string, probe bool, heard breakerVerdict) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.class(name)
	if probe {
		c.probing = false
	}
	switch heard {
	case heardSuccess:
		c.state = breakerClosed
		c.fails = 0
	case heardFailure:
		c.fails++
		if (probe && c.state == breakerHalfOpen) || c.fails >= b.threshold {
			c.state = breakerOpen
			c.openUntil = b.now().Add(b.cooldown)
			c.fails = 0
			if b.onOpen != nil {
				b.onOpen(name)
			}
		}
	}
}

// snapshot returns the named state of every breaker that has tripped or
// probed (closed classes that never failed are omitted — the zero map
// means "all healthy").
func (b *breakerSet) snapshot() map[string]string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]string, len(b.classes))
	for name, c := range b.classes {
		if c.state == breakerClosed && c.fails == 0 {
			continue
		}
		out[name] = breakerStateNames[c.state]
	}
	return out
}

// retrySecs reports how long a caller should wait before retrying a
// class whose breaker is open (minimum 1s).
func (b *breakerSet) retrySecs(name string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.classes[name]
	if c == nil || c.state != breakerOpen {
		return 1
	}
	secs := int(math.Ceil(b.now().Sub(c.openUntil).Seconds() * -1))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// modelHash fingerprints a request body so error responses and logs can
// be correlated to the exact document without echoing it back.
func modelHash(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:6])
}

// retryAfterSecs derives a Retry-After value from the observed p95
// solve wall time: a shed request behind queueLen waiters can expect
// roughly (queueLen+1) x p95 before capacity frees up. A cold histogram
// (no observations yet — Quantile answers NaN) or a degenerate
// zero/negative p95 says nothing about capacity, so the answer is 1,
// and the result is clamped to [1, 60] so a pathological tail still
// yields a sane header.
func retryAfterSecs(p95 float64, queueLen int) int {
	if math.IsNaN(p95) || p95 <= 0 {
		return 1
	}
	secs := int(math.Ceil(p95 * float64(queueLen+1)))
	return min(max(secs, 1), 60)
}

// breakerVerdict is what one exact-path request tells its model class's
// breaker.
type breakerVerdict int

const (
	// heardNothing: the request says nothing about the solver (the
	// document was at fault, or the client went away).
	heardNothing breakerVerdict = iota
	// heardSuccess: the solver answered; the class closes.
	heardSuccess
	// heardFailure: the solver broke; the class is charged.
	heardFailure
)

// outcome is serve's one reading of how a request ended: the reply's
// status and machine-readable code, the trace store's outcome, and what
// the model class's breaker hears. The codes are the contract chaos
// assertions and clients key on; human-readable messages stay free to
// change.
type outcome struct {
	status  int
	code    string
	trace   string
	breaker breakerVerdict
}

// outcomeOf classifies a request's error, nil for success. A document
// fault (modelio.ErrBadSpec, which the solve boundary puts on every
// failure the document caused) is 422 and a client cancellation 503, and
// neither reaches the breaker; a deadline, an injected fault, a panic and
// anything unclassified are the solver's. The jobs sentinels map onto the
// /jobs replies.
func outcomeOf(err error) outcome {
	var ferr *failpoint.Error
	switch {
	case err == nil:
		return outcome{http.StatusOK, "", "ok", heardSuccess}
	case errors.Is(err, guard.ErrDeadline):
		return outcome{http.StatusGatewayTimeout, "deadline", "deadline", heardFailure}
	case errors.Is(err, guard.ErrCanceled):
		return outcome{http.StatusServiceUnavailable, "canceled", "canceled", heardNothing}
	case errors.As(err, &ferr):
		return outcome{http.StatusInternalServerError, "injected", "error", heardFailure}
	case errors.Is(err, modelio.ErrBadSpec):
		return outcome{http.StatusUnprocessableEntity, "bad-spec", "error", heardNothing}
	case errors.Is(err, jobs.ErrBadSpec):
		return outcome{http.StatusBadRequest, "bad-spec", "error", heardNothing}
	case errors.Is(err, jobs.ErrUnknownJob):
		return outcome{http.StatusNotFound, "unknown-job", "error", heardNothing}
	case errors.Is(err, jobs.ErrDraining):
		return outcome{http.StatusServiceUnavailable, "draining", "error", heardNothing}
	case errors.Is(err, jobs.ErrTerminal):
		return outcome{http.StatusConflict, "terminal", "error", heardNothing}
	default:
		return outcome{http.StatusInternalServerError, "internal", "error", heardFailure}
	}
}

// maxBytesError reports whether the body read failed because the client
// exceeded the http.MaxBytesReader budget.
func maxBytesError(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe)
}
