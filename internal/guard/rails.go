package guard

import (
	"fmt"
	"math"

	"repro/internal/obs"
)

// Strictness selects how a guard-rail violation is handled.
type Strictness string

// The three strictness modes.
const (
	// Strict turns violations into errors that fail the solve.
	Strict Strictness = "strict"
	// Warn records violations on the trace but lets the solve proceed.
	Warn Strictness = "warn"
	// Off disables the checks entirely.
	Off Strictness = "off"
)

// ParseStrictness validates a mode string ("" maps to Warn).
func ParseStrictness(s string) (Strictness, error) {
	switch Strictness(s) {
	case "":
		return Warn, nil
	case Strict, Warn, Off:
		return Strictness(s), nil
	}
	return Off, fmt.Errorf("guard: unknown strictness %q (want strict, warn, or off)", s)
}

// NumericalError reports a failed numerical invariant at a solver
// boundary: a non-finite entry, lost probability mass, a violated row sum.
type NumericalError struct {
	// Op names the check site ("modelio.ctmc.steadystate", …).
	Op string
	// Detail describes the violated invariant.
	Detail string
}

// Error implements error.
func (e *NumericalError) Error() string {
	return fmt.Sprintf("guard: %s: %s", e.Op, e.Detail)
}

// FailureClass implements Classed.
func (e *NumericalError) FailureClass() string { return string(ClassNumerical) }

// Rails bundles a strictness mode with the recorder that receives
// warnings, so solve sites can run checks with one call.
type Rails struct {
	// Mode selects Strict, Warn, or Off (the zero value "" behaves as
	// Warn).
	Mode Strictness
	// Recorder receives warn-mode violations as span attributes.
	Recorder obs.Recorder
	// Tol is the tolerance for mass/row-sum checks (default 1e-9).
	Tol float64
}

// tol returns the effective tolerance.
func (r Rails) tol() float64 {
	if r.Tol > 0 {
		return r.Tol
	}
	return 1e-9
}

// enforce applies the strictness mode to a violation: nil in Off mode, a
// recorded warning in Warn mode, the error itself in Strict mode.
func (r Rails) enforce(err *NumericalError) error {
	if err == nil {
		return nil
	}
	switch r.Mode {
	case Off:
		return nil
	case Strict:
		return err
	default:
		if rec := obs.Or(r.Recorder); rec.Enabled() {
			rec.Set(obs.S("guard_warning", err.Detail), obs.S("guard_warning_op", err.Op))
		}
		return nil
	}
}

// CheckProbVector verifies v is a probability vector: finite entries
// within [-tol, 1+tol] and total mass within tol of 1.
func (r Rails) CheckProbVector(op string, v []float64) error {
	if r.Mode == Off {
		return nil
	}
	if err := firstNonFinite(op, v); err != nil {
		return r.enforce(err)
	}
	tol := r.tol()
	var sum float64
	for i, x := range v {
		if x < -tol || x > 1+tol {
			return r.enforce(&NumericalError{Op: op,
				Detail: fmt.Sprintf("entry %d = %g outside [0,1]", i, x)})
		}
		sum += x
	}
	if math.Abs(sum-1) > tol*float64(max(len(v), 1)) {
		return r.enforce(&NumericalError{Op: op,
			Detail: fmt.Sprintf("probability mass %g differs from 1 by %g", sum, math.Abs(sum-1))})
	}
	return nil
}

// CheckUnitInterval verifies a scalar probability-valued result.
func (r Rails) CheckUnitInterval(op string, v float64) error {
	if r.Mode == Off {
		return nil
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return r.enforce(&NumericalError{Op: op, Detail: fmt.Sprintf("non-finite value %g", v)})
	}
	tol := r.tol()
	if v < -tol || v > 1+tol {
		return r.enforce(&NumericalError{Op: op, Detail: fmt.Sprintf("value %g outside [0,1]", v)})
	}
	return nil
}

// CheckFiniteScalar verifies a scalar result is finite (MTTF, rates).
func (r Rails) CheckFiniteScalar(op string, v float64) error {
	if r.Mode == Off {
		return nil
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return r.enforce(&NumericalError{Op: op, Detail: fmt.Sprintf("non-finite value %g", v)})
	}
	return nil
}

// firstNonFinite returns a NumericalError naming the first NaN/Inf entry.
func firstNonFinite(op string, v []float64) *NumericalError {
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return &NumericalError{Op: op, Detail: fmt.Sprintf("non-finite entry %d = %g", i, x)}
		}
	}
	return nil
}

// IsFinite reports whether x is neither NaN nor ±Inf — the boundary check
// solvers run on per-iteration residuals.
func IsFinite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

// nan is a helper for "no residual recorded yet".
func nan() float64 { return math.NaN() }
