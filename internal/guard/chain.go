package guard

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/obs"
)

// FailureClass buckets solver failures so a fallback chain can decide
// whether escalating to the next method makes sense.
type FailureClass string

// The failure classes understood by chain escalation.
const (
	// ClassNone marks success.
	ClassNone FailureClass = ""
	// ClassNoConvergence: the iteration budget ran out without reaching
	// tolerance. Escalatable — an exact method may still succeed.
	ClassNoConvergence FailureClass = "no-convergence"
	// ClassDivergence: the iteration produced growing or non-finite
	// residuals. Escalatable.
	ClassDivergence FailureClass = "divergence"
	// ClassNumerical: a guard-rail check failed (NaN/Inf, lost probability
	// mass). Escalatable.
	ClassNumerical FailureClass = "numerical"
	// ClassBudget: a size budget was exceeded (the Boeing path).
	// Escalatable — that is what the bounding fallbacks are for.
	ClassBudget FailureClass = "budget-exceeded"
	// ClassInjected: a failpoint tripped (internal/failpoint). Escalatable
	// so fault injection exercises the same fallback paths a genuine
	// solver failure would.
	ClassInjected FailureClass = "injected"
	// ClassCanceled and ClassDeadline: the context was interrupted. Never
	// escalated — the caller asked the whole solve to stop.
	ClassCanceled FailureClass = "canceled"
	ClassDeadline FailureClass = "deadline"
	// ClassInternal: a recovered panic. Not escalated by default; the
	// model likely triggers the same defect in every method.
	ClassInternal FailureClass = "internal"
	// ClassError: anything unclassified (malformed model, dimension
	// mismatch). Not escalated — a structural error fails every method
	// the same way.
	ClassError FailureClass = "error"
)

// Classed is implemented by typed solver errors that know their own
// failure class (linalg.ErrNoConvergence, hier.NoConvergenceError,
// *InterruptError, …). Classify falls back to ClassError for errors that
// do not.
type Classed interface {
	FailureClass() string
}

// Classify buckets an error for chain escalation.
func Classify(err error) FailureClass {
	if err == nil {
		return ClassNone
	}
	var c Classed
	if errors.As(err, &c) {
		return FailureClass(c.FailureClass())
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return ClassDeadline
	case errors.Is(err, context.Canceled):
		return ClassCanceled
	}
	return ClassError
}

// Escalatable reports whether a failure of this class should fall through
// to the next method in a chain.
func (c FailureClass) Escalatable() bool {
	switch c {
	case ClassNoConvergence, ClassDivergence, ClassNumerical, ClassBudget, ClassInjected:
		return true
	}
	return false
}

// Step is one method in a fallback chain.
type Step[T any] struct {
	// Name identifies the method in the trace ("sor", "gth", "bounds").
	Name string
	// Run executes the method. The recorder is scoped to this attempt's
	// span, so nested solver spans land under the attempt.
	Run func(ctx context.Context, rec obs.Recorder) (T, error)
}

// Prefer reorders a step list so the named step runs first, keeping the
// relative order of the remaining steps. An unknown name returns the list
// unchanged, so callers can pass a structural solver hint through
// verbatim without validating it against the chain's method set.
func Prefer[T any](name string, steps ...Step[T]) []Step[T] {
	for i, s := range steps {
		if s.Name != name {
			continue
		}
		out := make([]Step[T], 0, len(steps))
		out = append(out, s)
		out = append(out, steps[:i]...)
		out = append(out, steps[i+1:]...)
		return out
	}
	return steps
}

// Attempt records one executed step in a ChainReport.
type Attempt struct {
	// Method is the step name.
	Method string `json:"method"`
	// Class is the failure class ("" on success).
	Class FailureClass `json:"class,omitempty"`
	// Err is the failure message ("" on success).
	Err string `json:"error,omitempty"`
}

// ChainReport summarizes a chain run: every attempt in order plus the
// winning method ("" when the chain was exhausted or aborted).
type ChainReport struct {
	Attempts []Attempt `json:"attempts"`
	Winner   string    `json:"winner,omitempty"`
}

// ExhaustedError reports a chain whose every method failed. It unwraps to
// the last attempt's error, so errors.Is/As reach the typed solver error.
type ExhaustedError struct {
	// Name labels the chain ("steadystate", …).
	Name string
	// Report holds the attempt log.
	Report *ChainReport

	last error
}

// Error implements error.
func (e *ExhaustedError) Error() string {
	parts := make([]string, len(e.Report.Attempts))
	for i, a := range e.Report.Attempts {
		parts[i] = fmt.Sprintf("%s: %s", a.Method, a.Class)
	}
	return fmt.Sprintf("guard: chain %s exhausted (%s): %v", e.Name, strings.Join(parts, ", "), e.last)
}

// Unwrap exposes the final attempt's error.
func (e *ExhaustedError) Unwrap() error { return e.last }

// RunChain executes the steps in escalation order until one succeeds.
// Each step runs once: failures with an escalatable class
// (no-convergence, divergence, numerical, budget) fall through to the
// next step; cancellation, deadline, and structural errors abort
// immediately. Every attempt, its failure class, and the winning method
// are recorded on a "guard.chain" span under rec, and the same
// information is returned as a ChainReport regardless of tracing.
func RunChain[T any](ctx context.Context, rec obs.Recorder, name string, steps ...Step[T]) (T, *ChainReport, error) {
	var zero T
	report := &ChainReport{}
	if len(steps) == 0 {
		return zero, report, fmt.Errorf("guard: chain %s has no steps", name)
	}
	rec = obs.Or(rec)
	tracing := rec.Enabled()
	if tracing {
		rec = rec.Span("guard.chain", obs.S("chain", name), obs.I("steps", len(steps)))
		defer rec.End()
	}
	var lastErr error
	for _, step := range steps {
		if err := Ctx(ctx, "guard.chain:"+name, 0, nan()); err != nil {
			report.finish(rec, tracing, "")
			return zero, report, err
		}
		sp := rec
		if tracing {
			sp = rec.Span("attempt:"+step.Name, obs.S("method", step.Name))
		}
		val, err := step.Run(ctx, sp)
		class := Classify(err)
		report.Attempts = append(report.Attempts, Attempt{Method: step.Name, Class: class, Err: errString(err)})
		if tracing {
			if err != nil {
				sp.Set(obs.S("failure_class", string(class)), obs.S("error", err.Error()))
			} else {
				sp.Set(obs.S("failure_class", "none"))
			}
			sp.End()
		}
		if err == nil {
			report.finish(rec, tracing, step.Name)
			return val, report, nil
		}
		lastErr = err
		if !class.Escalatable() {
			// Cancellation/deadline/structural failure: abort the chain,
			// surfacing the typed error unchanged.
			report.finish(rec, tracing, "")
			return zero, report, err
		}
	}
	report.finish(rec, tracing, "")
	return zero, report, &ExhaustedError{Name: name, Report: report, last: lastErr}
}

// finish stamps the chain span with the outcome.
func (r *ChainReport) finish(rec obs.Recorder, tracing bool, winner string) {
	r.Winner = winner
	if !tracing {
		return
	}
	if winner == "" {
		rec.Set(obs.I("attempts", len(r.Attempts)), obs.S("outcome", "exhausted"))
		return
	}
	rec.Set(obs.I("attempts", len(r.Attempts)), obs.S("winner", winner))
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
