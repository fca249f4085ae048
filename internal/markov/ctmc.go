// Package markov implements continuous- and discrete-time Markov chains:
// steady-state solution (GTH state reduction for small chains, SOR for
// large sparse ones), transient solution by uniformization (Jensen's
// method) with stable Poisson weighting, cumulative transient measures
// (interval availability), absorbing-chain analysis (mean time to
// absorption, absorption probabilities, accumulated reward), Markov reward
// models, and parametric sensitivity of the stationary vector.
//
// Markov chains are the tutorial's primary state-space model type: they
// capture the dependence (shared repair, imperfect coverage, standby
// redundancy) that the non-state-space models cannot, at the cost of state
// spaces that grow exponentially with the number of components.
package markov

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/guard"
	"repro/internal/linalg"
	"repro/internal/obs"
)

// CTMC is a continuous-time Markov chain under construction or analysis.
// States are created lazily by name; transitions carry positive rates.
type CTMC struct {
	names []string
	index map[string]int
	edges
	// classes keeps the closed classes of a chain whose structure a
	// pattern has fixed (see NewPattern) once a solve has found them; the
	// chains WithRates makes from it share them. nil: each solve finds
	// them.
	classes *closedClassCache
}

// closedClassCache holds closedClasses' answer for one chain structure.
type closedClassCache struct {
	once     sync.Once
	closedOf []int
	closed   int
}

// edges holds a chain's transitions in the order they were added, as
// parallel index arrays: the k-th runs from state from[k] to state to[k]
// at rate[k] (a probability, for a DTMC). The generator's layout and
// relstruct.Analyze read the arrays as they are.
type edges struct {
	from, to []int
	rate     []float64
}

// transition is one edge, read out of the arrays.
type transition struct {
	from, to int
	rate     float64
}

// add appends a transition. The three arrays grow together, from room
// for eight, so a small chain built by AddRate allocates them once.
func (e *edges) add(from, to int, rate float64) {
	if len(e.from) == cap(e.from) {
		n := max(8, 2*cap(e.from))
		e.from = append(make([]int, 0, n), e.from...)
		e.to = append(make([]int, 0, n), e.to...)
		e.rate = append(make([]float64, 0, n), e.rate...)
	}
	e.from = append(e.from, from)
	e.to = append(e.to, to)
	e.rate = append(e.rate, rate)
}

// edge returns the k-th transition.
func (e *edges) edge(k int) transition {
	return transition{from: e.from[k], to: e.to[k], rate: e.rate[k]}
}

// Errors returned by chain construction and analysis.
var (
	ErrUnknownState = errors.New("markov: unknown state")
	ErrBadRate      = errors.New("markov: rate must be positive and finite")
	ErrEmptyChain   = errors.New("markov: chain has no states")
	ErrBadInitial   = errors.New("markov: initial distribution invalid")
	// ErrSelfLoop reports a transition from a state to itself, which a
	// CTMC cannot express.
	ErrSelfLoop = errors.New("markov: self-transition")
	// ErrAbsorptionUncertain reports an absorbing analysis whose transient
	// block is singular: some transient state cannot reach the absorbing
	// set, so the time to absorption is not finite.
	ErrAbsorptionUncertain = errors.New("transient block singular (absorption not certain from every state?)")
)

// NewCTMC returns an empty chain.
func NewCTMC() *CTMC {
	return &CTMC{index: make(map[string]int)}
}

// State ensures a state with the given name exists and returns its index.
func (c *CTMC) State(name string) int {
	if i, ok := c.index[name]; ok {
		return i
	}
	c.classes = nil
	i := len(c.names)
	c.index[name] = i
	c.names = append(c.names, name)
	return i
}

// AddRate adds a transition with the given rate from one state to another,
// creating the states as needed. Multiple calls accumulate.
func (c *CTMC) AddRate(from, to string, rate float64) error {
	if err := CheckRate(from, to, rate); err != nil {
		return err
	}
	if from == to {
		return selfTransition(from)
	}
	c.classes = nil
	c.add(c.State(from), c.State(to), rate)
	return nil
}

// CheckRate rejects a rate that is not positive and finite with the error
// AddRate returns for it.
func CheckRate(from, to string, rate float64) error {
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return fmt.Errorf("%w: %q -> %q rate %g", ErrBadRate, from, to, rate)
	}
	return nil
}

func selfTransition(state string) error {
	return fmt.Errorf("%w %q has no effect in a CTMC", ErrSelfLoop, state)
}

// NewCTMCFrom returns the chain over states already numbered: state i is
// names[i], index maps each name to its number, and the k-th transition
// runs from state from[k] to state to[k] at rate[k]. It checks the
// transitions in order as AddRate would, and returns the first error
// AddRate would have returned. The chain takes the slices and the map;
// the caller must not modify them afterwards.
func NewCTMCFrom(names []string, index map[string]int, from, to []int, rate []float64) (*CTMC, error) {
	n := len(names)
	if len(index) != n || len(to) != len(from) || len(rate) != len(from) {
		return nil, fmt.Errorf("markov: %d names, %d indexed, %d sources, %d targets, %d rates",
			n, len(index), len(from), len(to), len(rate))
	}
	for k, f := range from {
		t := to[k]
		if f < 0 || f >= n || t < 0 || t >= n {
			return nil, fmt.Errorf("%w: transition %d -> %d outside %d states", ErrUnknownState, f, t, n)
		}
		if err := CheckRate(names[f], names[t], rate[k]); err != nil {
			return nil, err
		}
		if f == t {
			return nil, selfTransition(names[f])
		}
	}
	return &CTMC{names: names, index: index, edges: edges{from: from, to: to, rate: rate}}, nil
}

// WithRates returns a chain over c's states and transitions whose k-th
// transition, in AddRate order, has rate rates[k]. Each rate is checked
// as AddRate checks it. The two chains share one state table and one set
// of index arrays, so add no states or transitions to either afterwards.
func (c *CTMC) WithRates(rates []float64) (*CTMC, error) {
	if len(rates) != len(c.from) {
		return nil, fmt.Errorf("markov: %d rates for %d transitions", len(rates), len(c.from))
	}
	for k, r := range rates {
		if err := CheckRate(c.names[c.from[k]], c.names[c.to[k]], r); err != nil {
			return nil, err
		}
	}
	n := len(c.from)
	e := edges{from: c.from[:n:n], to: c.to[:n:n], rate: append([]float64(nil), rates...)}
	return &CTMC{names: c.names, index: c.index, edges: e, classes: c.classes}, nil
}

// NumStates returns the number of states created so far.
func (c *CTMC) NumStates() int { return len(c.names) }

// StateNames returns a copy of the state names in index order.
func (c *CTMC) StateNames() []string {
	out := make([]string, len(c.names))
	copy(out, c.names)
	return out
}

// Index returns the index of a named state.
func (c *CTMC) Index(name string) (int, error) {
	i, ok := c.index[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownState, name)
	}
	return i, nil
}

// Generator assembles the infinitesimal generator Q in CSR form, including
// the negative diagonal: the chain's layout (see NewPattern) with its
// rates written in. A duplicated (from, to) pair is summed in transition
// order, as is each diagonal.
func (c *CTMC) Generator() (*linalg.CSR, error) {
	p, err := layout(c)
	if err != nil {
		return nil, err
	}
	return p.Fill(c)
}

// gthCutoff is the largest chain auto always solves by dense GTH: every
// model document's chain, and the 243- and 256-state chains of the
// experiments. gthThreshold is the largest it may: above it a CTMC
// solves by SOR and a DTMC by power iteration. In between, auto picks a
// CTMC's method by its structure (see SteadyStateOptions.Method).
const (
	gthCutoff    = 256
	gthThreshold = 600
)

// SteadyStateOptions tunes the stationary solve.
type SteadyStateOptions struct {
	// Method selects the solver: "gth", "sor", "chain" (SOR first,
	// escalating to exact GTH when the iteration fails to converge or
	// diverges), or "" and "auto", which pick by the chain's size:
	//   - up to gthCutoff (256) states, GTH;
	//   - up to gthThreshold (600), SOR when one pass over the chain
	//     finds one closed class of several states with a rate spread
	//     inside it below relstruct.StiffThreshold, and GTH otherwise.
	//     That SOR run solves the closed class alone, judges convergence
	//     by each state's relative change and stops after as many sweeps
	//     as GTH's predicted work on the pattern (see sorBudget;
	//     ⌈n³/(3·nnz)⌉ for a dense fill), or SOR.MaxIter if that is
	//     smaller. If it fails for any reason but an interrupt, GTH
	//     solves the whole chain;
	//   - above that, SOR.
	// "auto" above gthThreshold, and "sor" and "chain" at any size, fail
	// a chain with several closed classes, whose long-run distribution is
	// not unique, with an error matching linalg.ErrReducible.
	Method string
	// SOR tunes the iterative solver when it is used. Its Recorder field
	// is overridden by Recorder below.
	SOR linalg.SOROptions
	// Recorder receives solver telemetry (nil disables).
	Recorder obs.Recorder
	// Ctx interrupts the solve between sweeps; nil never interrupts.
	Ctx context.Context
}

// SteadyState computes the stationary distribution π of a chain with one
// closed class by the method "auto" picks: GTH (exact, subtraction-free)
// up to 256 states, and up to 600 for a stiff chain, one whose closed
// class is a single absorbing state, or one SOR cannot settle within
// GTH's predicted cost; SOR otherwise (see SteadyStateOptions.Method).
func (c *CTMC) SteadyState() ([]float64, error) {
	return c.SteadyStateWithOptions(SteadyStateOptions{})
}

// SteadyStateWithOptions is SteadyState with solver selection and
// telemetry.
func (c *CTMC) SteadyStateWithOptions(opts SteadyStateOptions) ([]float64, error) {
	q, err := c.Generator()
	if err != nil {
		return nil, err
	}
	return c.SteadyStateFrom(q, opts)
}

// SteadyStateFrom is SteadyStateWithOptions on c's generator q, which
// the caller has already built (by Generator, or on a Pattern).
func (c *CTMC) SteadyStateFrom(q *linalg.CSR, opts SteadyStateOptions) ([]float64, error) {
	method := opts.Method
	// budget is the sweep budget of auto's SOR between the cutoffs; 0
	// leaves SOR as the options set it. class, when set, holds the states
	// of the chain's one closed class, which that SOR solves alone.
	budget := 0
	var class []int
	var structErr error
	switch method {
	case "", "auto":
		switch n := q.Rows(); {
		case n <= gthCutoff:
			method = "gth"
		case n <= gthThreshold:
			method = "gth"
			if cl, ok := c.sorClass(q); ok {
				method, budget, class = "sor", sorBudget(q, opts.SOR.MaxIter), cl
			}
		default:
			method = "sor"
			if _, closed := c.closedClasses(q); closed > 1 {
				structErr = notUnique(closed)
			}
		}
	case "sor":
		if _, closed := c.closedClasses(q); closed > 1 {
			structErr = notUnique(closed)
		}
	case "gth", "chain":
	default:
		return nil, fmt.Errorf("markov steady state: unknown method %q (want auto, gth, sor, or chain)", opts.Method)
	}
	rec := obs.Or(opts.Recorder)
	if rec.Enabled() {
		rec = rec.Span("markov.steadystate",
			obs.I("states", q.Rows()), obs.I("transitions", len(c.from)),
			obs.S("method", method))
		defer rec.End()
		if budget > 0 {
			rec.Set(obs.I("sor_budget", budget))
		}
	}
	if structErr != nil {
		return nil, structErr
	}
	switch method {
	case "gth":
		return c.gthSteadyState(opts.Ctx, q, rec)
	case "chain":
		chainSteps := func(q *linalg.CSR) []guard.Step[[]float64] {
			return []guard.Step[[]float64]{
				{Name: "sor", Run: func(ctx context.Context, arec obs.Recorder) ([]float64, error) {
					so := opts.SOR
					so.Recorder = arec
					so.Ctx = ctx
					v, _, err := linalg.SORSteadyState(q, so)
					if err != nil {
						return nil, err
					}
					return v, nil
				}},
				{Name: "gth", Run: func(_ context.Context, arec obs.Recorder) ([]float64, error) {
					return solveGTH(q, arec)
				}},
			}
		}
		steps := chainSteps(q)
		// Before running, consult the static structural analysis: it may
		// shrink the problem (solve only the recurrent class) and reorder
		// the fallback steps (exact method first on a stiff chain). Both
		// decisions are recorded on the steadystate span.
		var members []int
		if rep, serr := c.structure(); serr == nil {
			if rep.RecurrentClasses > 1 {
				return nil, notUnique(rep.RecurrentClasses)
			}
			h := rep.Hint
			if h.Reason != "" && (h.Method != "" || h.Reduce == "restrict-recurrent") {
				rec.Set(obs.S("struct_hint", h.Reason))
			}
			if h.Reduce == "restrict-recurrent" {
				ms := rep.RecurrentMembers(0)
				if qsub := c.restricted(ms, rec); qsub != nil {
					members = ms
					steps = chainSteps(qsub)
				}
			}
			if h.Method != "" {
				steps = guard.Prefer(h.Method, steps...)
				rec.Set(obs.S("struct_prefer", h.Method))
			}
		}
		pi, _, err := guard.RunChain(opts.Ctx, rec, "steadystate", steps...)
		if err != nil {
			return nil, fmt.Errorf("markov steady state: %w", err)
		}
		return pad(pi, members, len(c.names)), nil
	}
	sorOpts := opts.SOR
	sorOpts.Recorder = rec
	if sorOpts.Ctx == nil {
		sorOpts.Ctx = opts.Ctx
	}
	sq, members := q, []int(nil)
	if budget > 0 {
		sorOpts.MaxIter, sorOpts.Relative = budget, true
		if class != nil {
			if qsub := c.restricted(class, rec); qsub != nil {
				sq, members = qsub, class
			}
		}
	}
	pi, _, err := linalg.SORSteadyState(sq, sorOpts)
	if err != nil {
		if budget > 0 && !interrupted(err) {
			rec.Set(obs.S("fallback", "gth"))
			return c.gthSteadyState(opts.Ctx, q, rec)
		}
		return nil, fmt.Errorf("markov steady state: %w", err)
	}
	return pad(pi, members, len(c.names)), nil
}

// pad spreads pi, the stationary vector of the sub-chain over members
// (see restricted), over all n states, zero outside members; it returns
// pi itself when members is nil.
func pad(pi []float64, members []int, n int) []float64 {
	if members == nil {
		return pi
	}
	full := make([]float64, n)
	for j, s := range members {
		full[s] = pi[j]
	}
	return full
}

// sorBudget is the sweep budget of auto's SOR on q: GTH's predicted work
// on q's pattern in sweeps of q's nnz entries, rounded up, or maxIter
// when that is positive and smaller.
//
// GTH eliminates the states from the last down. Eliminating state k reads
// the first k entries of row k and of column k, and updates the first k
// entries of each row i < k whose entry in column k is nonzero by then;
// back substitution reads 2k more. Fill only ever lands left of a
// nonzero, so a row's last nonzero never moves right, and the rows
// updated at k are among the u_k rows i < k whose last nonzero lies in a
// column ≥ k. The prediction is Σ k·(4 + u_k): about n³/3 when every row
// reaches the last column, and about 2.5·n² for a birth–death chain,
// whose zero multipliers GTH skips.
func sorBudget(q *linalg.CSR, maxIter int) int {
	n := q.Rows()
	// reach[k] is the change in u_k from k-1 to k.
	reach := make([]int, n+1)
	for i := 0; i < n; i++ {
		if cols, _ := q.Row(i); len(cols) > 0 && cols[len(cols)-1] > i {
			reach[i+1]++
			reach[cols[len(cols)-1]+1]--
		}
	}
	work, u := 0, 0
	for k := 1; k < n; k++ {
		u += reach[k]
		work += k * (4 + u)
	}
	budget := (work + q.NNZ() - 1) / q.NNZ()
	if maxIter > 0 && maxIter < budget {
		return maxIter
	}
	return budget
}

// interrupted reports whether err is a cancellation or a deadline, which
// stops the whole solve instead of falling back to another method.
func interrupted(err error) bool {
	switch guard.Classify(err) {
	case guard.ClassCanceled, guard.ClassDeadline:
		return true
	}
	return false
}

// gthSteadyState is the "gth" method: a last check of ctx, since GTH
// cannot be interrupted, and the elimination. GTH fails a chain with one
// closed class when a transient state is numbered before the class:
// eliminating from the last state down, it reaches a state of the class
// with no transition to a lower-indexed one. So on linalg.ErrReducible a
// chain with exactly one closed class solves that class alone and pads
// the transient states with zeros. With several closed classes GTH's
// error stands.
func (c *CTMC) gthSteadyState(ctx context.Context, q *linalg.CSR, rec obs.Recorder) ([]float64, error) {
	if err := guard.Ctx(ctx, "markov.steadystate", 0, math.NaN()); err != nil {
		guard.RecordInterrupt(rec, err)
		return nil, err
	}
	pi, err := solveGTH(q, rec)
	if errors.Is(err, linalg.ErrReducible) {
		if class := c.loneClosedClass(q); class != nil {
			if qsub := c.restricted(class, rec); qsub != nil {
				if sub, serr := solveGTH(qsub, rec); serr == nil {
					return pad(sub, class, len(c.names)), nil
				}
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("markov steady state: %w", err)
	}
	return pi, nil
}

// solveGTH runs the exact GTH elimination under its own solver span.
func solveGTH(q *linalg.CSR, rec obs.Recorder) ([]float64, error) {
	if rec.Enabled() {
		sp := rec.Span("linalg.gth", obs.S("solver", "gth"), obs.I("states", q.Rows()))
		defer sp.End()
	}
	return linalg.GTHCSR(q)
}

// SteadyStateMap returns the stationary distribution keyed by state name.
func (c *CTMC) SteadyStateMap() (map[string]float64, error) {
	return c.SteadyStateMapWithOptions(SteadyStateOptions{})
}

// SteadyStateMapWithOptions is SteadyStateMap with solver selection and
// telemetry.
func (c *CTMC) SteadyStateMapWithOptions(opts SteadyStateOptions) (map[string]float64, error) {
	pi, err := c.SteadyStateWithOptions(opts)
	if err != nil {
		return nil, err
	}
	return c.ProbMap(pi)
}

// ProbMap keys a probability vector by state name.
func (c *CTMC) ProbMap(pi []float64) (map[string]float64, error) {
	if len(pi) != len(c.names) {
		return nil, fmt.Errorf("markov: vector len %d for %d states", len(pi), len(c.names))
	}
	out := make(map[string]float64, len(pi))
	for i, name := range c.names {
		out[name] = pi[i]
	}
	return out, nil
}

// ProbSum sums a probability vector over the named states.
func (c *CTMC) ProbSum(pi []float64, states ...string) (float64, error) {
	if len(pi) != len(c.names) {
		return 0, fmt.Errorf("markov: vector len %d for %d states", len(pi), len(c.names))
	}
	var s float64
	for _, name := range states {
		i, err := c.Index(name)
		if err != nil {
			return 0, err
		}
		s += pi[i]
	}
	return s, nil
}

// checkInitial validates and copies an initial distribution.
func (c *CTMC) checkInitial(p0 []float64) ([]float64, error) {
	if len(p0) != len(c.names) {
		return nil, fmt.Errorf("%w: len %d for %d states", ErrBadInitial, len(p0), len(c.names))
	}
	var sum float64
	for i, p := range p0 {
		if p < 0 || p > 1 {
			return nil, fmt.Errorf("%w: p0[%d]=%g", ErrBadInitial, i, p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("%w: sums to %g", ErrBadInitial, sum)
	}
	return linalg.Clone(p0), nil
}

// InitialAt returns the point-mass initial distribution on the named state.
func (c *CTMC) InitialAt(name string) ([]float64, error) {
	i, err := c.Index(name)
	if err != nil {
		return nil, err
	}
	p0 := make([]float64, len(c.names))
	p0[i] = 1
	return p0, nil
}

// ExpectedReward returns Σ_i reward(state_i)·π_i for the supplied
// probability vector.
func (c *CTMC) ExpectedReward(pi []float64, reward func(state string) float64) (float64, error) {
	if len(pi) != len(c.names) {
		return 0, fmt.Errorf("markov: vector len %d for %d states", len(pi), len(c.names))
	}
	var s float64
	for i, name := range c.names {
		s += pi[i] * reward(name)
	}
	return s, nil
}
