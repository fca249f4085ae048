package linalg

import (
	"context"
	"fmt"
	"math"

	"repro/internal/failpoint"
	"repro/internal/guard"
	"repro/internal/obs"
)

// Failpoints this package declares (see internal/failpoint): injected
// per-sweep/per-step faults surface through the same typed-error plumbing
// as genuine solver failures, so chaos runs exercise the fallback chains.
const (
	fpSORSweep  = "linalg.sor.sweep"
	fpPowerStep = "linalg.power.step"
	fpGTH       = "linalg.gth"
)

// SOROptions controls the stationary-vector SOR/Gauss–Seidel iteration.
type SOROptions struct {
	// Omega is the relaxation factor; 1.0 gives plain Gauss–Seidel.
	Omega float64
	// Tol is the convergence tolerance on the L∞ change per sweep.
	Tol float64
	// MaxIter bounds the number of sweeps.
	MaxIter int
	// Relative measures each state's change per sweep relative to its
	// larger value, before or after the sweep, instead of absolutely, so
	// a state with little mass must settle as tightly as a heavy one. A
	// state whose value does not change counts as settled.
	Relative bool
	// Recorder receives per-sweep convergence telemetry (nil disables).
	Recorder obs.Recorder
	// Ctx interrupts the iteration between sweeps; nil never interrupts.
	// An interrupted solve returns the partial vector together with a
	// *guard.InterruptError.
	Ctx context.Context
}

// DefaultSOROptions returns the options used when a zero value is supplied.
func DefaultSOROptions() SOROptions {
	return SOROptions{Omega: 1.0, Tol: 1e-12, MaxIter: 100000}
}

// PowerOptions controls PowerIterationOpts. The zero value selects the
// defaults (see DefaultPowerOptions).
type PowerOptions struct {
	// Tol is the convergence tolerance on the L∞ change per step.
	Tol float64
	// MaxIter bounds the number of steps.
	MaxIter int
	// Recorder receives per-step convergence telemetry (nil disables).
	Recorder obs.Recorder
	// Ctx interrupts the iteration between steps; nil never interrupts.
	Ctx context.Context
}

// DefaultPowerOptions returns the options used when a zero value is
// supplied.
func DefaultPowerOptions() PowerOptions {
	return PowerOptions{Tol: 1e-13, MaxIter: 200000}
}

// ErrNoConvergence is returned when an iterative method exhausts MaxIter.
type ErrNoConvergence struct {
	Iter     int
	Residual float64
}

func (e *ErrNoConvergence) Error() string {
	return fmt.Sprintf("linalg: no convergence after %d iterations (residual %g)", e.Iter, e.Residual)
}

// FailureClass implements guard.Classed, so fallback chains escalate past
// an exhausted iteration budget.
func (e *ErrNoConvergence) FailureClass() string { return string(guard.ClassNoConvergence) }

// ErrDiverged is returned when an iterative method produces a non-finite
// sweep delta — the iterate left the representable domain, so more sweeps
// cannot recover it.
type ErrDiverged struct {
	Iter  int
	Delta float64
}

func (e *ErrDiverged) Error() string {
	return fmt.Sprintf("linalg: iteration diverged at sweep %d (delta %g)", e.Iter, e.Delta)
}

// FailureClass implements guard.Classed.
func (e *ErrDiverged) FailureClass() string { return string(guard.ClassDivergence) }

// SORSteadyState solves π·Q = 0, Σπ = 1 for an irreducible CTMC generator Q
// in CSR form using successive over-relaxation on the normal form
// π(j) = (Σ_{i≠j} π(i)·q(i,j)) / (-q(j,j)).
//
// The iteration runs on the transposed matrix so each unknown update reads a
// contiguous CSR row. Returns the stationary vector and the number of sweeps
// performed.
func SORSteadyState(q *CSR, opts SOROptions) ([]float64, int, error) {
	n := q.Rows()
	if q.Cols() != n {
		return nil, 0, fmt.Errorf("sor: matrix %dx%d not square: %w", q.Rows(), q.Cols(), ErrDimensionMismatch)
	}
	if n == 0 {
		return nil, 0, fmt.Errorf("sor: empty generator")
	}
	def := DefaultSOROptions()
	if opts.Omega == 0 { //numvet:allow float-eq zero means unset; option-default sentinel
		opts.Omega = def.Omega
	}
	if opts.Tol == 0 { //numvet:allow float-eq zero means unset; option-default sentinel
		opts.Tol = def.Tol
	}
	if opts.MaxIter == 0 {
		opts.MaxIter = def.MaxIter
	}
	if opts.Omega <= 0 || opts.Omega >= 2 {
		return nil, 0, fmt.Errorf("sor: omega %g outside (0,2)", opts.Omega)
	}
	rec := obs.Or(opts.Recorder)
	tracing := rec.Enabled()
	if tracing {
		rec = rec.Span("linalg.sor",
			obs.S("solver", "sor"), obs.I("states", n),
			obs.F("omega", opts.Omega), obs.F("tol", opts.Tol))
		defer rec.End()
	}

	// Row j of qt holds the incoming rates q(i,j) plus q(j,j). A generator
	// on a pattern with a kept transpose (a compiled plan's) only places
	// its values here.
	qt := q.Transpose()
	diag := make([]float64, n)
	for j := 0; j < n; j++ {
		d := qt.At(j, j)
		if d >= 0 {
			// Absorbing or malformed diagonal: reconstruct from the row sums
			// of the original matrix if possible.
			var out float64
			q.RowRange(j, func(col int, val float64) {
				if col != j {
					out += val
				}
			})
			if out == 0 { //numvet:allow float-eq exactly-zero diagonal means a structurally reducible generator
				return nil, 0, fmt.Errorf("sor: state %d has no outgoing rate; %w", j, ErrReducible)
			}
			d = -out
		}
		diag[j] = d
	}

	pi := make([]float64, n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}

	var prevDelta float64
	for iter := 1; iter <= opts.MaxIter; iter++ {
		if err := guard.Ctx(opts.Ctx, "linalg.sor", iter-1, prevDelta); err != nil {
			guard.RecordInterrupt(rec, err)
			return pi, iter - 1, err
		}
		if err := failpoint.InjectCtx(opts.Ctx, fpSORSweep); err != nil {
			return pi, iter - 1, err
		}
		var maxDelta float64
		for j := 0; j < n; j++ {
			var inflow float64
			cols, vals := qt.Row(j)
			for k, col := range cols {
				if col != j {
					inflow += pi[col] * vals[k]
				}
			}
			next := inflow / -diag[j]
			next = pi[j] + opts.Omega*(next-pi[j])
			if next < 0 {
				next = 0
			}
			d := math.Abs(next - pi[j])
			if opts.Relative && d > 0 && d < math.MaxFloat64 {
				// d/m > maxDelta, without a division per state.
				if m := max(next, pi[j]); d > maxDelta*m {
					maxDelta = d / m
				}
			} else if d > maxDelta {
				maxDelta = d
			}
			pi[j] = next
		}
		if !guard.IsFinite(maxDelta) {
			if tracing {
				rec.Set(obs.I("iterations", iter), obs.S("outcome", "diverged"))
			}
			return pi, iter, &ErrDiverged{Iter: iter, Delta: maxDelta}
		}
		if err := Normalize1(pi); err != nil {
			return nil, iter, fmt.Errorf("sor: %w", err)
		}
		if tracing {
			rec.Iter(iter, maxDelta)
		}
		if maxDelta < opts.Tol {
			if tracing {
				rec.Set(obs.I("iterations", iter),
					obs.F("spectral_radius_est", ratioOrNaN(maxDelta, prevDelta)))
			}
			return pi, iter, nil
		}
		prevDelta = maxDelta
	}
	resid := residualSteadyState(q, pi)
	if tracing {
		rec.Set(obs.I("iterations", opts.MaxIter), obs.F("final_residual", resid))
	}
	return pi, opts.MaxIter, &ErrNoConvergence{Iter: opts.MaxIter, Residual: resid}
}

// ratioOrNaN estimates the iteration-matrix spectral radius from the last
// two sweep deltas: for a linearly converging stationary iteration the
// delta ratio approaches the dominant subdominant eigenvalue magnitude.
func ratioOrNaN(last, prev float64) float64 {
	if prev <= 0 || math.IsNaN(prev) || math.IsNaN(last) {
		return math.NaN()
	}
	return last / prev
}

// residualSteadyState returns ‖π·Q‖∞ as a convergence diagnostic.
func residualSteadyState(q *CSR, pi []float64) float64 {
	r, err := q.VecMul(pi)
	if err != nil {
		return math.NaN()
	}
	return NormInf(r)
}

// PowerIterationOpts computes the stationary distribution of an
// irreducible, aperiodic DTMC with transition matrix P (rows sum to 1) by
// repeated multiplication π ← π·P. Returns the vector and iteration
// count. Zero Tol and MaxIter select the defaults (see
// DefaultPowerOptions), and a Recorder collects per-step convergence
// records.
func PowerIterationOpts(p *CSR, opts PowerOptions) ([]float64, int, error) {
	n := p.Rows()
	if p.Cols() != n {
		return nil, 0, fmt.Errorf("power: matrix %dx%d not square: %w", p.Rows(), p.Cols(), ErrDimensionMismatch)
	}
	if n == 0 {
		return nil, 0, fmt.Errorf("power: empty matrix")
	}
	def := DefaultPowerOptions()
	if opts.Tol == 0 { //numvet:allow float-eq zero means unset; option-default sentinel
		opts.Tol = def.Tol
	}
	if opts.MaxIter == 0 {
		opts.MaxIter = def.MaxIter
	}
	rec := obs.Or(opts.Recorder)
	tracing := rec.Enabled()
	if tracing {
		rec = rec.Span("linalg.power",
			obs.S("solver", "power"), obs.I("states", n), obs.F("tol", opts.Tol))
		defer rec.End()
	}
	pi := make([]float64, n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	var prevDelta float64
	for iter := 1; iter <= opts.MaxIter; iter++ {
		if err := guard.Ctx(opts.Ctx, "linalg.power", iter-1, prevDelta); err != nil {
			guard.RecordInterrupt(rec, err)
			return pi, iter - 1, err
		}
		if err := failpoint.InjectCtx(opts.Ctx, fpPowerStep); err != nil {
			return pi, iter - 1, err
		}
		next, err := p.VecMul(pi)
		if err != nil {
			return nil, iter, err
		}
		if err := Normalize1(next); err != nil {
			return nil, iter, fmt.Errorf("power: %w", err)
		}
		d, _ := MaxAbsDiff(next, pi)
		if !guard.IsFinite(d) {
			if tracing {
				rec.Set(obs.I("iterations", iter), obs.S("outcome", "diverged"))
			}
			return pi, iter, &ErrDiverged{Iter: iter, Delta: d}
		}
		copy(pi, next)
		if tracing {
			rec.Iter(iter, d)
		}
		if d < opts.Tol {
			if tracing {
				rec.Set(obs.I("iterations", iter),
					obs.F("spectral_radius_est", ratioOrNaN(d, prevDelta)))
			}
			return pi, iter, nil
		}
		prevDelta = d
	}
	if tracing {
		rec.Set(obs.I("iterations", opts.MaxIter))
	}
	return pi, opts.MaxIter, &ErrNoConvergence{Iter: opts.MaxIter, Residual: prevDelta}
}
