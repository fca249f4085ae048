// Package guard is the robustness layer ("relguard") wrapped around the
// analytic solve pipeline. It provides the pieces that keep a solve
// bounded, recoverable, and self-explaining:
//
//   - cancellation and deadlines: iterative solvers poll a context at
//     iteration granularity through Ctx and surface a typed
//     *InterruptError that unwraps to both the guard sentinel
//     (ErrCanceled / ErrDeadline) and the underlying context error while
//     carrying partial-progress telemetry;
//   - fallback chains: RunChain escalates through solver methods (SOR →
//     GTH, exact BDD → cut-set bounds) with retry/backoff semantics,
//     classifying each failure and recording every attempt in the trace;
//   - numerical guard rails: finite/probability-mass invariant checks with
//     Strict/Warn/Off modes, and log-space helpers for probabilities too
//     small for the linear domain;
//   - panic containment: RecoverPanic converts internal panics at a public
//     boundary into a typed *InternalError carrying the open span stack.
//
// The package sits below every solver package (it imports only the
// standard library and internal/obs), so linalg, markov, hier, faulttree,
// and modelio can all depend on it without cycles.
package guard

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"

	"repro/internal/obs"
)

// Sentinels matched by errors.Is on interrupted solves. The concrete error
// in the chain is a *InterruptError.
var (
	// ErrCanceled marks a solve interrupted by context cancellation.
	ErrCanceled = errors.New("guard: solve canceled")
	// ErrDeadline marks a solve that exceeded its context deadline.
	ErrDeadline = errors.New("guard: solve deadline exceeded")
)

// InterruptError is returned by a solver that observed context
// cancellation mid-iteration. It carries the partial progress made so the
// caller (and the trace) can tell how far the solve got.
type InterruptError struct {
	// Op names the solver that was interrupted ("linalg.sor", …).
	Op string
	// Iterations is the number of iterations completed before the
	// interruption.
	Iterations int
	// LastResidual is the most recent convergence measure (NaN when the
	// solve was interrupted before the first residual).
	LastResidual float64

	cause error // context.Canceled or context.DeadlineExceeded
}

// Error implements error.
func (e *InterruptError) Error() string {
	what := "canceled"
	if errors.Is(e.cause, context.DeadlineExceeded) {
		what = "deadline exceeded"
	}
	return fmt.Sprintf("guard: %s %s after %d iterations (last residual %g)",
		e.Op, what, e.Iterations, e.LastResidual)
}

// Unwrap links the error to both the guard sentinel and the context error,
// so errors.Is works against ErrCanceled/ErrDeadline as well as
// context.Canceled/context.DeadlineExceeded.
func (e *InterruptError) Unwrap() []error {
	sentinel := ErrCanceled
	if errors.Is(e.cause, context.DeadlineExceeded) {
		sentinel = ErrDeadline
	}
	return []error{sentinel, e.cause}
}

// FailureClass implements Classed: interruption by deadline or
// cancellation.
func (e *InterruptError) FailureClass() string {
	if errors.Is(e.cause, context.DeadlineExceeded) {
		return string(ClassDeadline)
	}
	return string(ClassCanceled)
}

// Ctx polls the context at iteration granularity. It returns nil when the
// context is nil or still live, and a *InterruptError carrying the
// partial progress otherwise. The live path is a non-blocking receive on
// ctx.Done(), which takes no lock once the channel exists; ctx.Err(),
// which locks the context's mutex, runs only after Done has fired. Many
// goroutines can therefore poll one context every sweep without
// contending.
func Ctx(ctx context.Context, op string, iterations int, lastResidual float64) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return &InterruptError{Op: op, Iterations: iterations, LastResidual: lastResidual, cause: ctx.Err()}
	default:
		return nil
	}
}

// RecordInterrupt stamps an interrupted span with the outcome and partial
// progress so the trace explains where the deadline landed.
func RecordInterrupt(rec obs.Recorder, err error) {
	var ie *InterruptError
	if rec == nil || !rec.Enabled() || !errors.As(err, &ie) {
		return
	}
	rec.Set(obs.S("outcome", ie.FailureClass()),
		obs.I("iterations", ie.Iterations),
		obs.F("last_residual", ie.LastResidual))
}

// BudgetError reports work refused (or abandoned) because a size budget
// was exceeded — the Boeing path: a model too large for exact solution,
// where a bounding method must take over.
type BudgetError struct {
	// Op names the budgeted operation ("faulttree.bdd", …).
	Op string
	// Budget is the configured limit and Actual the size that tripped it.
	Budget, Actual int
}

// Error implements error.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("guard: %s exceeded budget (%d > %d)", e.Op, e.Actual, e.Budget)
}

// FailureClass implements Classed.
func (e *BudgetError) FailureClass() string { return string(ClassBudget) }

// InternalError is a panic converted into an error at a public solve
// boundary. It preserves the panic value, the goroutine stack, and the
// open telemetry span path at the moment of the panic.
type InternalError struct {
	// Op names the boundary that recovered the panic.
	Op string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured by runtime/debug.Stack.
	Stack []byte
	// SpanPath is the chain of open trace spans (outermost first) when the
	// panic unwound, when the attached Recorder exposes one.
	SpanPath []string
}

// Error implements error.
func (e *InternalError) Error() string {
	msg := fmt.Sprintf("guard: internal error in %s: %v", e.Op, e.Value)
	if len(e.SpanPath) > 0 {
		msg += " (in " + strings.Join(e.SpanPath, " > ") + ")"
	}
	return msg
}

// FailureClass implements Classed.
func (e *InternalError) FailureClass() string { return string(ClassInternal) }

// SpanPather is implemented by recorders (obs.Trace and its span scopes)
// that can report the currently open span chain.
type SpanPather interface {
	OpenPath() []string
}

// Isolate runs fn, converting any panic that unwinds out of it into a
// *InternalError. It is the per-request isolation boundary for servers:
// one solve panicking (a solver defect, an armed panic failpoint) must
// become a typed error on that request, never take down sibling solves
// sharing the process.
func Isolate(op string, fn func() error) (err error) {
	defer RecoverPanic(&err, nil, op)
	return fn()
}

// RecoverPanic converts a panic unwinding through a public boundary into a
// *InternalError assigned to *errp. Use it in a defer at the top of the
// boundary function:
//
//	defer guard.RecoverPanic(&err, rec, "modelio.solve")
//
// When no panic is in flight it does nothing, preserving the function's
// normal return value. See Isolate for the closure form.
func RecoverPanic(errp *error, rec obs.Recorder, op string) {
	r := recover()
	if r == nil {
		return
	}
	ie := &InternalError{Op: op, Value: r, Stack: debug.Stack()}
	if p, ok := rec.(SpanPather); ok {
		ie.SpanPath = p.OpenPath()
	}
	if rec != nil && rec.Enabled() {
		rec.Set(obs.S("outcome", "panic"), obs.S("panic", fmt.Sprint(r)))
	}
	*errp = ie
}
