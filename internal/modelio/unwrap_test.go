package modelio

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/guard"
	"repro/internal/hier"
	"repro/internal/linalg"
	"repro/internal/obs"
)

// starvedSOR is a CTMC document whose SOR budget is far too small, forcing
// the typed linalg non-convergence error up through the solve.
const starvedSOR = `{
  "type": "ctmc",
  "ctmc": {
    "transitions": [
      {"from": "a", "to": "b", "rate": 0.001},
      {"from": "b", "to": "a", "rate": 1000.0},
      {"from": "b", "to": "c", "rate": 0.001},
      {"from": "c", "to": "b", "rate": 1000.0}
    ],
    "measures": ["steadystate"],
    "solver": "sor",
    "solverTol": 1e-15,
    "solverMaxIter": 2
  }
}`

// TestUnwrapLinalgNoConvergence walks the whole error chain of a failed
// solve: the typed per-layer error and the guard failure classification
// must survive it, and a solver that did not converge is not the
// document's fault.
func TestUnwrapLinalgNoConvergence(t *testing.T) {
	spec, err := Parse(strings.NewReader(starvedSOR))
	if err != nil {
		t.Fatal(err)
	}
	_, err = SolveWithOptions(spec, SolveOptions{})
	if err == nil {
		t.Fatal("starved SOR budget converged")
	}
	if errors.Is(err, ErrBadSpec) {
		t.Errorf("errors.Is(err, ErrBadSpec) = true for %v", err)
	}
	var lerr *linalg.ErrNoConvergence
	if !errors.As(err, &lerr) {
		t.Fatalf("errors.As to *linalg.ErrNoConvergence = false for %v", err)
	}
	if lerr.Iter != 2 {
		t.Errorf("typed error iterations = %d, want 2", lerr.Iter)
	}
	if got := guard.Classify(err); got != guard.ClassNoConvergence {
		t.Errorf("guard.Classify(err) = %q, want %q", got, guard.ClassNoConvergence)
	}
}

// TestUnwrapHierNoConvergence checks that the solve boundary returns
// hier's typed error as it is: it matches the hier sentinel, exposes the
// typed diagnostics, and is not the document's fault.
func TestUnwrapHierNoConvergence(t *testing.T) {
	inner := &hier.NoConvergenceError{Iterations: 7, LastDelta: 0.25}
	in := fmt.Errorf("outer: %w", inner)
	err := classify(in)
	if err != in {
		t.Errorf("classify(%v) = %v, want it unchanged", in, err)
	}
	if errors.Is(err, ErrBadSpec) {
		t.Errorf("errors.Is(err, ErrBadSpec) = true for %v", err)
	}
	if !errors.Is(err, hier.ErrNoConvergence) {
		t.Errorf("errors.Is(err, hier.ErrNoConvergence) = false for %v", err)
	}
	var herr *hier.NoConvergenceError
	if !errors.As(err, &herr) {
		t.Fatalf("errors.As to *hier.NoConvergenceError = false for %v", err)
	}
	if herr.Iterations != 7 {
		t.Errorf("typed error iterations = %d, want 7", herr.Iterations)
	}
}

// TestUnwrapDeadline drives a real solve into its Timeout and checks every
// address the caller might match against: the guard sentinel, the stdlib
// context error, and the typed interrupt with its partial progress.
func TestUnwrapDeadline(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(`{"type":"ctmc","ctmc":{"transitions":[`)
	for i := 0; i < 1499; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"from":"s%d","to":"s%d","rate":1.0},{"from":"s%d","to":"s%d","rate":2.0}`,
			i, i+1, i+1, i)
	}
	sb.WriteString(`],"measures":["steadystate"],"solver":"sor","solverTol":1e-30}}`)
	spec, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	_, err = SolveWithOptions(spec, SolveOptions{Timeout: 1_000_000}) // 1ms
	if err == nil {
		t.Fatal("unconvergeable solve beat a 1ms deadline")
	}
	if !errors.Is(err, guard.ErrDeadline) {
		t.Errorf("errors.Is(err, guard.ErrDeadline) = false for %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("errors.Is(err, context.DeadlineExceeded) = false for %v", err)
	}
	var ierr *guard.InterruptError
	if !errors.As(err, &ierr) {
		t.Fatalf("errors.As to *guard.InterruptError = false for %v", err)
	}
	if ierr.Op == "" {
		t.Error("interrupt carries no operation label")
	}
}

// TestUnwrapCanceled covers the pre-canceled Context path end to end.
func TestUnwrapCanceled(t *testing.T) {
	spec, err := Parse(strings.NewReader(starvedSOR))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = SolveWithOptions(spec, SolveOptions{Context: ctx})
	if !errors.Is(err, guard.ErrCanceled) {
		t.Errorf("errors.Is(err, guard.ErrCanceled) = false for %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false for %v", err)
	}
	if got := guard.Classify(err); got != guard.ClassCanceled {
		t.Errorf("guard.Classify(err) = %q, want %q", got, guard.ClassCanceled)
	}
}

// TestUnwrapChainExhausted checks the solve boundary on a chain that died
// with a typed last attempt: the exhausted-chain wrapper and the typed
// linalg error must stay addressable, and the failure is the solver's.
func TestUnwrapChainExhausted(t *testing.T) {
	last := &linalg.ErrNoConvergence{Iter: 3, Residual: 0.5}
	_, _, cerr := guard.RunChain(context.Background(), obs.Nop(), "steadystate",
		guard.Step[int]{Name: "only", Run: func(context.Context, obs.Recorder) (int, error) {
			return 0, last
		}})
	if cerr == nil {
		t.Fatal("single failing step produced no chain error")
	}
	err := classify(fmt.Errorf("chain: %w", cerr))
	if errors.Is(err, ErrBadSpec) {
		t.Errorf("errors.Is(err, ErrBadSpec) = true for %v", err)
	}
	var ex *guard.ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("errors.As to *guard.ExhaustedError = false for %v", err)
	}
	var lerr *linalg.ErrNoConvergence
	if !errors.As(err, &lerr) {
		t.Fatalf("errors.As to *linalg.ErrNoConvergence = false for %v", err)
	}
}

// TestClassifyMarksDocumentFaults: every input sentinel, bare or wrapped
// in context, comes back from the solve boundary matching ErrBadSpec and
// the sentinel, with its text unchanged.
func TestClassifyMarksDocumentFaults(t *testing.T) {
	for _, fault := range inputFaults {
		for _, in := range []error{
			fmt.Errorf("%w: \"a\"", fault),
			fmt.Errorf("component \"a\" lifetime: %w", fmt.Errorf("%w: \"a\"", fault)),
		} {
			err := classify(in)
			if !errors.Is(err, ErrBadSpec) || !errors.Is(err, fault) {
				t.Errorf("classify(%v): matches ErrBadSpec %v, its sentinel %v; want both",
					in, errors.Is(err, ErrBadSpec), errors.Is(err, fault))
			}
			if err.Error() != in.Error() {
				t.Errorf("classify changed the text: %q -> %q", in, err)
			}
		}
	}
	if err := classify(nil); err != nil {
		t.Errorf("classify(nil) = %v", err)
	}
	bad := fmt.Errorf("%w: unknown type %q", ErrBadSpec, "x")
	if err := classify(bad); err != bad {
		t.Errorf("classify(%v) = %v, want it unchanged", bad, err)
	}
}
