package dist

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/linalg"
)

// PhaseType is a continuous phase-type distribution PH(α, S): the time to
// absorption of a CTMC with transient subgenerator S, initial distribution
// α over the transient states, and exit rates s⁰ = -S·1.
//
// Phase-type distributions are dense in the nonnegative distributions, and
// are the standard mechanism for embedding non-exponential behaviour into a
// Markov model (the tutorial's "dealing with non-exponential distributions").
type PhaseType struct {
	alpha []float64
	sub   *linalg.Dense // n×n subgenerator
	exit  []float64     // exit rate vector s⁰
	mean  float64
	m2    float64 // second moment
}

var _ Distribution = (*PhaseType)(nil)

// NewPhaseType constructs PH(α, S). α must be a sub-stochastic vector of
// length n; S must be an n×n subgenerator (negative diagonal, nonnegative
// off-diagonal, row sums ≤ 0 with at least one strictly negative row sum).
func NewPhaseType(alpha []float64, sub *linalg.Dense) (*PhaseType, error) {
	n := len(alpha)
	if sub.Rows() != n || sub.Cols() != n {
		return nil, fmt.Errorf("phase-type: alpha len %d vs S %dx%d: %w",
			n, sub.Rows(), sub.Cols(), ErrBadParam)
	}
	if n == 0 {
		return nil, fmt.Errorf("phase-type: empty: %w", ErrBadParam)
	}
	var asum float64
	for i, a := range alpha {
		if a < 0 || a > 1 {
			return nil, fmt.Errorf("phase-type: alpha[%d]=%g: %w", i, a, ErrBadParam)
		}
		asum += a
	}
	if asum <= 0 || asum > 1+1e-12 {
		return nil, fmt.Errorf("phase-type: alpha sums to %g: %w", asum, ErrBadParam)
	}
	exit := make([]float64, n)
	anyExit := false
	for i := 0; i < n; i++ {
		var rowSum float64
		for j := 0; j < n; j++ {
			v := sub.At(i, j)
			if i == j {
				if v >= 0 {
					return nil, fmt.Errorf("phase-type: diagonal S[%d][%d]=%g not negative: %w", i, i, v, ErrBadParam)
				}
			} else if v < 0 {
				return nil, fmt.Errorf("phase-type: off-diagonal S[%d][%d]=%g negative: %w", i, j, v, ErrBadParam)
			}
			rowSum += v
		}
		if rowSum > 1e-9 {
			return nil, fmt.Errorf("phase-type: row %d sums to %g > 0: %w", i, rowSum, ErrBadParam)
		}
		e := -rowSum
		if e < 0 {
			e = 0
		}
		exit[i] = e
		if e > 0 {
			anyExit = true
		}
	}
	if !anyExit {
		return nil, fmt.Errorf("phase-type: no exit rates; absorption impossible: %w", ErrBadParam)
	}
	ph := &PhaseType{
		alpha: append([]float64(nil), alpha...),
		sub:   sub.Clone(),
		exit:  exit,
	}
	var err error
	if ph.mean, err = ph.moment(1); err != nil {
		return nil, err
	}
	if ph.m2, err = ph.moment(2); err != nil {
		return nil, err
	}
	return ph, nil
}

// Order returns the number of phases.
func (d *PhaseType) Order() int { return len(d.alpha) }

// moment computes E[X^k] = k!·α·(-S)^{-k}·1 by repeated linear solves.
func (d *PhaseType) moment(k int) (float64, error) {
	n := len(d.alpha)
	// negS = -S
	negS := linalg.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			negS.Set(i, j, -d.sub.At(i, j))
		}
	}
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	v := ones
	fact := 1.0
	for i := 1; i <= k; i++ {
		var err error
		v, err = linalg.LUSolve(negS, v)
		if err != nil {
			return 0, fmt.Errorf("phase-type moment %d: %w", k, err)
		}
		fact *= float64(i)
	}
	dot, err := linalg.Dot(d.alpha, v)
	if err != nil {
		return 0, err
	}
	return fact * dot, nil
}

// CDF returns 1 - α·e^{St}·1.
func (d *PhaseType) CDF(t float64) float64 {
	if t <= 0 {
		return 0
	}
	st := d.sub.Clone()
	for i := 0; i < st.Rows(); i++ {
		row := st.Row(i)
		for j := range row {
			row[j] *= t
		}
	}
	e, err := linalg.Expm(st)
	if err != nil {
		return math.NaN()
	}
	v, err := e.VecMul(d.alpha) // α·e^{St}
	if err != nil {
		return math.NaN()
	}
	surv := linalg.Sum(v)
	if surv < 0 {
		surv = 0
	}
	if surv > 1 {
		surv = 1
	}
	return 1 - surv
}

// PDF returns α·e^{St}·s⁰.
func (d *PhaseType) PDF(t float64) float64 {
	if t < 0 {
		return 0
	}
	st := d.sub.Clone()
	for i := 0; i < st.Rows(); i++ {
		row := st.Row(i)
		for j := range row {
			row[j] *= t
		}
	}
	e, err := linalg.Expm(st)
	if err != nil {
		return math.NaN()
	}
	v, err := e.VecMul(d.alpha)
	if err != nil {
		return math.NaN()
	}
	p, err := linalg.Dot(v, d.exit)
	if err != nil || p < 0 {
		return 0
	}
	return p
}

// Mean returns E[X].
func (d *PhaseType) Mean() float64 { return d.mean }

// Var returns the variance.
func (d *PhaseType) Var() float64 { return d.m2 - d.mean*d.mean }

// SCV returns the squared coefficient of variation Var/Mean².
func (d *PhaseType) SCV() float64 { return d.Var() / (d.mean * d.mean) }

// Quantile inverts the CDF numerically.
func (d *PhaseType) Quantile(p float64) (float64, error) {
	return numericQuantile(d.CDF, p)
}

// Rand simulates the underlying absorbing CTMC.
func (d *PhaseType) Rand(rng *rand.Rand) float64 {
	n := len(d.alpha)
	// Choose initial phase.
	u := rng.Float64()
	phase := -1
	var cum float64
	for i, a := range d.alpha {
		cum += a
		if u < cum {
			phase = i
			break
		}
	}
	if phase < 0 {
		// Mass 1-Σα starts absorbed: zero lifetime.
		return 0
	}
	var t float64
	for steps := 0; steps < 1_000_000; steps++ {
		total := -d.sub.At(phase, phase)
		t += rng.ExpFloat64() / total
		// Choose next: exit with prob exit/total, else internal jump.
		u := rng.Float64() * total
		if u < d.exit[phase] {
			return t
		}
		u -= d.exit[phase]
		next := phase
		for j := 0; j < n; j++ {
			if j == phase {
				continue
			}
			v := d.sub.At(phase, j)
			if u < v {
				next = j
				break
			}
			u -= v
		}
		phase = next
	}
	return t
}

// String implements fmt.Stringer.
func (d *PhaseType) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "PH(order=%d, mean=%.4g, scv=%.4g)", d.Order(), d.Mean(), d.SCV())
	return sb.String()
}

// NewErlang returns the Erlang-k distribution with the given per-stage rate
// as a phase-type object: k sequential exponential stages.
func NewErlang(k int, rate float64) (*PhaseType, error) {
	if k < 1 || rate <= 0 {
		return nil, fmt.Errorf("erlang k=%d rate=%g: %w", k, rate, ErrBadParam)
	}
	alpha := make([]float64, k)
	alpha[0] = 1
	s := linalg.NewDense(k, k)
	for i := 0; i < k; i++ {
		s.Set(i, i, -rate)
		if i+1 < k {
			s.Set(i, i+1, rate)
		}
	}
	return NewPhaseType(alpha, s)
}

// NewHypoexponential returns the hypoexponential (generalized Erlang)
// distribution: sequential exponential stages with the given rates.
// Its squared coefficient of variation is below 1.
func NewHypoexponential(rates ...float64) (*PhaseType, error) { //numvet:allow unused-export inventory: DESIGN row 2, hypoexponential
	if len(rates) == 0 {
		return nil, fmt.Errorf("hypoexponential: no rates: %w", ErrBadParam)
	}
	n := len(rates)
	alpha := make([]float64, n)
	alpha[0] = 1
	s := linalg.NewDense(n, n)
	for i, r := range rates {
		if r <= 0 {
			return nil, fmt.Errorf("hypoexponential rate[%d]=%g: %w", i, r, ErrBadParam)
		}
		s.Set(i, i, -r)
		if i+1 < n {
			s.Set(i, i+1, r)
		}
	}
	return NewPhaseType(alpha, s)
}

// NewHyperexponential returns the hyperexponential distribution: with
// probability probs[i] the lifetime is exponential with rates[i]. Its
// squared coefficient of variation exceeds 1.
func NewHyperexponential(probs, rates []float64) (*PhaseType, error) {
	if len(probs) != len(rates) || len(probs) == 0 {
		return nil, fmt.Errorf("hyperexponential: %d probs vs %d rates: %w",
			len(probs), len(rates), ErrBadParam)
	}
	n := len(probs)
	s := linalg.NewDense(n, n)
	var psum float64
	for i := range probs {
		if probs[i] < 0 || rates[i] <= 0 {
			return nil, fmt.Errorf("hyperexponential branch %d (p=%g, rate=%g): %w",
				i, probs[i], rates[i], ErrBadParam)
		}
		psum += probs[i]
		s.Set(i, i, -rates[i])
	}
	if math.Abs(psum-1) > 1e-9 {
		return nil, fmt.Errorf("hyperexponential: probs sum to %g: %w", psum, ErrBadParam)
	}
	return NewPhaseType(probs, s)
}
