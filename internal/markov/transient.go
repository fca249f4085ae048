package markov

import (
	"context"
	"fmt"
	"math"

	"repro/internal/failpoint"
	"repro/internal/guard"
	"repro/internal/linalg"
	"repro/internal/obs"
)

// fpUnifStep is the per-step failpoint inside the uniformization walks
// (Transient and CumulativeTransient share it): an injected fault aborts
// the transient solve with a typed error exactly like a genuine one.
const fpUnifStep = "markov.unif.step"

// TransientOptions tunes the uniformization computation.
type TransientOptions struct {
	// Tol is the allowed truncation error on the Poisson mass (default 1e-12).
	Tol float64
	// SteadyStateDetection stops the power sequence when successive vectors
	// agree to within Tol, replacing the tail with the converged vector.
	SteadyStateDetection bool
	// Recorder receives uniformization telemetry: truncation points,
	// per-step vector deltas, and early-stop decisions (nil disables).
	// Recording computes one extra L∞ diff per step when steady-state
	// detection is off.
	Recorder obs.Recorder
	// Ctx interrupts the power sequence between matrix powers; nil never
	// interrupts.
	Ctx context.Context
}

// Transient computes the state-probability vector p(t) = p0·e^{Qt} by
// Jensen's uniformization with stable Poisson weighting:
//
//	p(t) = Σ_k Poisson(qt; k) · p0·P^k,  P = I + Q/q,  q ≥ max_i |q_ii|.
//
// Uniformization is the standard transient solver for stiff availability
// models because every term is nonnegative — there is no subtractive
// cancellation.
func (c *CTMC) Transient(t float64, p0 []float64, opts TransientOptions) ([]float64, error) {
	v, err := c.checkInitial(p0)
	if err != nil {
		return nil, err
	}
	if t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
		return nil, fmt.Errorf("markov transient: bad time %g", t)
	}
	if t == 0 { //numvet:allow float-eq t exactly 0 returns the initial vector unchanged
		return v, nil
	}
	q, err := c.Generator()
	if err != nil {
		return nil, err
	}
	unif, rate, err := uniformized(q)
	if err != nil {
		return nil, err
	}
	if rate == 0 { //numvet:allow float-eq exactly-zero uniformization rate means no transitions
		return v, nil // no transitions at all
	}
	if opts.Tol == 0 { //numvet:allow float-eq zero means unset; option-default sentinel
		opts.Tol = 1e-12
	}
	weights, left, err := poissonWeights(rate*t, opts.Tol)
	if err != nil {
		return nil, err
	}
	kmax := left + len(weights) - 1
	rec := obs.Or(opts.Recorder)
	tracing := rec.Enabled()
	if tracing {
		rec = rec.Span("markov.transient",
			obs.S("solver", "uniformization"), obs.I("states", len(v)),
			obs.F("t", t), obs.F("unif_rate", rate), obs.F("tol", opts.Tol),
			obs.I("poisson_left", left), obs.I("poisson_right", kmax),
			obs.I("poisson_terms", len(weights)))
		defer rec.End()
	}
	out := make([]float64, len(v))
	// Walk k = 0,1,2,...: accumulate weights[k-left]·(p0·P^k). prev and
	// next trade places each step, so the walk allocates two vectors.
	prev, next := v, make([]float64, len(v))
	steps, earlyStop := 0, false
	for k := 0; k <= kmax; k++ {
		if err := guard.Ctx(opts.Ctx, "markov.transient", k, math.NaN()); err != nil {
			guard.RecordInterrupt(rec, err)
			return nil, err
		}
		if err := failpoint.InjectCtx(opts.Ctx, fpUnifStep); err != nil {
			return nil, err
		}
		if k > 0 {
			if err := unif.VecMulTo(next, prev); err != nil {
				return nil, err
			}
			steps = k
			if opts.SteadyStateDetection || tracing {
				d, _ := linalg.MaxAbsDiff(next, prev)
				if tracing {
					rec.Iter(k, d)
				}
				if opts.SteadyStateDetection && d < opts.Tol {
					// Remaining Poisson mass lands on the converged vector.
					var remaining float64
					for j := k - left; j < len(weights); j++ {
						if j >= 0 {
							remaining += weights[j]
						}
					}
					if err := linalg.AXPY(remaining, next, out); err != nil {
						return nil, err
					}
					earlyStop = true
					break
				}
			}
			prev, next = next, prev
		}
		if k >= left {
			if err := linalg.AXPY(weights[k-left], prev, out); err != nil {
				return nil, err
			}
		}
	}
	if tracing {
		early := 0
		if earlyStop {
			early = 1
		}
		rec.Set(obs.I("steps", steps), obs.I("early_stop", early))
	}
	// Guard against tiny negative round-off and renormalize.
	for i, x := range out {
		if x < 0 {
			out[i] = 0
		}
	}
	if err := linalg.Normalize1(out); err != nil {
		return nil, fmt.Errorf("markov transient: %w", err)
	}
	return out, nil
}

// CumulativeTransient computes L(t) = ∫₀ᵗ p(u) du, the expected total time
// spent in each state during [0, t]. Dividing by t gives the interval
// availability when summed over up states:
//
//	L(t) = (1/q) Σ_k (1 - Σ_{j≤k} Poisson(qt; j)) · p0·P^k.
func (c *CTMC) CumulativeTransient(t float64, p0 []float64, opts TransientOptions) ([]float64, error) {
	v, err := c.checkInitial(p0)
	if err != nil {
		return nil, err
	}
	if t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
		return nil, fmt.Errorf("markov cumulative transient: bad time %g", t)
	}
	out := make([]float64, len(v))
	if t == 0 { //numvet:allow float-eq t exactly 0 returns zero occupancy
		return out, nil
	}
	q, err := c.Generator()
	if err != nil {
		return nil, err
	}
	unif, rate, err := uniformized(q)
	if err != nil {
		return nil, err
	}
	if rate == 0 { //numvet:allow float-eq exactly-zero uniformization rate means no transitions
		// No transitions: occupancy is p0·t.
		for i := range out {
			out[i] = v[i] * t
		}
		return out, nil
	}
	if opts.Tol == 0 { //numvet:allow float-eq zero means unset; option-default sentinel
		opts.Tol = 1e-12
	}
	weights, left, err := poissonWeights(rate*t, opts.Tol)
	if err != nil {
		return nil, err
	}
	kmax := left + len(weights) - 1
	rec := obs.Or(opts.Recorder)
	tracing := rec.Enabled()
	if tracing {
		rec = rec.Span("markov.cumtransient",
			obs.S("solver", "uniformization"), obs.I("states", len(v)),
			obs.F("t", t), obs.F("unif_rate", rate), obs.F("tol", opts.Tol),
			obs.I("poisson_left", left), obs.I("poisson_right", kmax),
			obs.I("poisson_terms", len(weights)))
		defer rec.End()
	}
	// tailMass[k] = 1 - Σ_{j≤k} pois(j); computed from the truncated weights.
	// Mass below `left` is within tolerance and treated as already summed.
	// prev and next trade places each step, as in Transient.
	prev, next := v, make([]float64, len(v))
	cum := 0.0
	for k := 0; k <= kmax; k++ {
		if err := guard.Ctx(opts.Ctx, "markov.cumtransient", k, math.NaN()); err != nil {
			guard.RecordInterrupt(rec, err)
			return nil, err
		}
		if err := failpoint.InjectCtx(opts.Ctx, fpUnifStep); err != nil {
			return nil, err
		}
		if k > 0 {
			if err := unif.VecMulTo(next, prev); err != nil {
				return nil, err
			}
			prev, next = next, prev
		}
		if k >= left {
			cum += weights[k-left]
		}
		tail := 1 - cum
		if tail < 0 {
			tail = 0
		}
		if tracing && k > 0 {
			// The Poisson tail is the natural residual: the occupancy mass
			// still unaccounted for after k powers.
			rec.Iter(k, tail)
		}
		if err := linalg.AXPY(tail/rate, prev, out); err != nil {
			return nil, err
		}
		if tail == 0 { //numvet:allow float-eq Poisson tail underflows to exactly 0 at truncation
			break
		}
	}
	return out, nil
}

// IntervalAvailability returns the expected fraction of [0, t] spent in the
// named up states, starting from p0.
func (c *CTMC) IntervalAvailability(t float64, p0 []float64, upStates []string, opts TransientOptions) (float64, error) {
	if t <= 0 {
		return 0, fmt.Errorf("markov interval availability: t=%g must be positive", t)
	}
	occ, err := c.CumulativeTransient(t, p0, opts)
	if err != nil {
		return 0, err
	}
	up, err := c.ProbSum(occ, upStates...)
	if err != nil {
		return 0, err
	}
	return up / t, nil
}

// uniformized returns P = I + Q/q in CSR form together with the
// uniformization rate q (slightly above the largest exit rate). P is
// written onto Q's pattern; only a chain with absorbing states, whose
// rows store no diagonal in Q, lays out a pattern with those diagonals
// added.
func uniformized(q *linalg.CSR) (*linalg.CSR, float64, error) {
	n := q.Rows()
	var maxExit float64
	for i := 0; i < n; i++ {
		if d := -q.At(i, i); d > maxExit {
			maxExit = d
		}
	}
	if maxExit == 0 { //numvet:allow float-eq exactly-zero exit rate means no transitions
		return nil, 0, nil
	}
	rate := maxExit * 1.02
	q, err := q.WithDiagonal()
	if err != nil {
		return nil, 0, err
	}
	vals := make([]float64, 0, q.NNZ())
	for i := 0; i < n; i++ {
		cols, qv := q.Row(i)
		for k, col := range cols {
			if col == i {
				vals = append(vals, 1+qv[k]/rate)
			} else {
				vals = append(vals, qv[k]/rate)
			}
		}
	}
	p, err := q.WithValues(vals)
	return p, rate, err
}

// poissonWeights returns normalized Poisson(lambda) probabilities for
// k = left..right where the two-sided truncated mass is within tol. The
// weights are computed by recursion from the mode for numerical stability
// (a simplified Fox–Glynn scheme).
func poissonWeights(lambda, tol float64) ([]float64, int, error) {
	if lambda < 0 {
		return nil, 0, fmt.Errorf("markov: negative poisson rate %g", lambda)
	}
	if lambda == 0 { //numvet:allow float-eq lambda exactly 0 is the degenerate Poisson point mass
		return []float64{1}, 0, nil
	}
	mode := int(math.Floor(lambda))
	sd := math.Sqrt(lambda)
	left := mode - int(8*sd) - 10
	if left < 0 {
		left = 0
	}
	right := mode + int(8*sd) + 20
	w := make([]float64, right-left+1)
	w[mode-left] = 1
	// Downward recursion: p(k-1) = p(k)·k/λ.
	for k := mode; k > left; k-- {
		w[k-1-left] = w[k-left] * float64(k) / lambda
	}
	// Upward recursion: p(k+1) = p(k)·λ/(k+1).
	for k := mode; k < right; k++ {
		w[k+1-left] = w[k-left] * lambda / float64(k+1)
	}
	total := linalg.Sum(w)
	if total <= 0 || math.IsNaN(total) {
		return nil, 0, fmt.Errorf("markov: poisson weight normalization failed (lambda=%g)", lambda)
	}
	linalg.Scale(w, 1/total)
	// Trim negligible tails to keep the power sequence short.
	lo, hi := 0, len(w)-1
	var mass float64
	for lo < hi && mass+w[lo] < tol/2 {
		mass += w[lo]
		lo++
	}
	mass = 0
	for hi > lo && mass+w[hi] < tol/2 {
		mass += w[hi]
		hi--
	}
	trimmed := w[lo : hi+1]
	out := make([]float64, len(trimmed))
	copy(out, trimmed)
	total = linalg.Sum(out)
	linalg.Scale(out, 1/total)
	return out, left + lo, nil
}
