package markov

import (
	"context"
	"fmt"
	"math"

	"repro/internal/guard"
	"repro/internal/linalg"
	"repro/internal/obs"
)

// DTMC is a discrete-time Markov chain built by naming states and setting
// transition probabilities.
type DTMC struct {
	names []string
	index map[string]int
	edges // rate carries the probability
}

// NewDTMC returns an empty discrete-time chain.
func NewDTMC() *DTMC {
	return &DTMC{index: make(map[string]int)}
}

// State ensures a state exists and returns its index.
func (d *DTMC) State(name string) int {
	if i, ok := d.index[name]; ok {
		return i
	}
	i := len(d.names)
	d.index[name] = i
	d.names = append(d.names, name)
	return i
}

// AddProb adds transition probability p from one state to another
// (self-loops allowed). Multiple calls accumulate.
func (d *DTMC) AddProb(from, to string, p float64) error {
	if p <= 0 || p > 1 || math.IsNaN(p) {
		return fmt.Errorf("markov dtmc: probability %g for %q -> %q outside (0,1]", p, from, to)
	}
	d.add(d.State(from), d.State(to), p)
	return nil
}

// Index returns the index of a named state.
func (d *DTMC) Index(name string) (int, error) {
	i, ok := d.index[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownState, name)
	}
	return i, nil
}

// Matrix assembles the transition probability matrix and verifies that
// every row sums to 1 (within tolerance).
func (d *DTMC) Matrix() (*linalg.CSR, error) {
	n := len(d.names)
	if n == 0 {
		return nil, ErrEmptyChain
	}
	rowSum := make([]float64, n)
	for k, f := range d.from {
		rowSum[f] += d.rate[k]
	}
	for i, s := range rowSum {
		if math.Abs(s-1) > 1e-9 {
			return nil, fmt.Errorf("markov dtmc: row %q sums to %g, want 1", d.names[i], s)
		}
	}
	p, slots, err := linalg.Assemble(n, n, d.from, d.to, false)
	if err != nil {
		return nil, err
	}
	vals := make([]float64, p.NNZ())
	for k, s := range slots {
		vals[s] += d.rate[k]
	}
	return p.WithValues(vals)
}

// SteadyState computes the stationary distribution of an irreducible,
// aperiodic DTMC. Small chains use GTH on P−I (exact); large chains use
// power iteration.
func (d *DTMC) SteadyState() ([]float64, error) {
	return d.SteadyStateWithOptions(SteadyStateOptions{})
}

// SteadyStateWithOptions is SteadyState with solver selection ("auto",
// "gth", "power", or "chain" — power iteration escalating to exact GTH on
// P−I — for a DTMC) and telemetry.
func (d *DTMC) SteadyStateWithOptions(opts SteadyStateOptions) ([]float64, error) {
	p, err := d.Matrix()
	if err != nil {
		return nil, err
	}
	n := p.Rows()
	method := opts.Method
	switch method {
	case "", "auto":
		if n <= gthThreshold {
			method = "gth"
		} else {
			method = "power"
		}
	case "gth", "power", "chain":
	default:
		return nil, fmt.Errorf("markov dtmc steady state: unknown method %q (want auto, gth, power, or chain)", opts.Method)
	}
	rec := obs.Or(opts.Recorder)
	if rec.Enabled() {
		rec = rec.Span("markov.dtmc.steadystate",
			obs.I("states", n), obs.S("method", method))
		defer rec.End()
	}
	gth := func(rec obs.Recorder) ([]float64, error) {
		// P − I is a valid generator-shaped matrix: nonnegative
		// off-diagonals and zero row sums, so GTH applies verbatim.
		if rec.Enabled() {
			sp := rec.Span("linalg.gth", obs.S("solver", "gth"), obs.I("states", n))
			defer sp.End()
		}
		g := linalg.NewDense(n, n)
		for i := 0; i < n; i++ {
			p.RowRange(i, func(col int, val float64) {
				g.Add(i, col, val)
			})
			g.Add(i, i, -1)
		}
		return linalg.GTH(g)
	}
	switch method {
	case "gth":
		if err := guard.Ctx(opts.Ctx, "markov.dtmc.steadystate", 0, math.NaN()); err != nil {
			guard.RecordInterrupt(rec, err)
			return nil, err
		}
		pi, err := gth(rec)
		if err != nil {
			return nil, fmt.Errorf("markov dtmc steady state: %w", err)
		}
		return pi, nil
	case "chain":
		steps := []guard.Step[[]float64]{
			{Name: "power", Run: func(ctx context.Context, arec obs.Recorder) ([]float64, error) {
				v, _, err := linalg.PowerIterationOpts(p, linalg.PowerOptions{Recorder: arec, Ctx: ctx})
				if err != nil {
					return nil, err
				}
				return v, nil
			}},
			{Name: "gth", Run: func(_ context.Context, arec obs.Recorder) ([]float64, error) {
				return gth(arec)
			}},
		}
		// A stiff or periodic chain defeats power iteration; the static
		// analysis moves the exact method first instead of paying for the
		// doomed attempt.
		if rep, serr := d.structure(); serr == nil && rep.Hint.Method != "" {
			steps = guard.Prefer(rep.Hint.Method, steps...)
			rec.Set(obs.S("struct_hint", rep.Hint.Reason),
				obs.S("struct_prefer", rep.Hint.Method))
		}
		pi, _, err := guard.RunChain(opts.Ctx, rec, "dtmc.steadystate", steps...)
		if err != nil {
			return nil, fmt.Errorf("markov dtmc steady state: %w", err)
		}
		return pi, nil
	}
	pi, _, err := linalg.PowerIterationOpts(p, linalg.PowerOptions{Recorder: rec, Ctx: opts.Ctx})
	if err != nil {
		return nil, fmt.Errorf("markov dtmc steady state: %w", err)
	}
	return pi, nil
}

// AbsorptionProbs computes, for a DTMC whose named absorbing states have
// P(i,i)=1, the probability of eventually being absorbed in each absorbing
// state starting from the given state.
func (d *DTMC) AbsorptionProbs(initial string, absorbing ...string) (map[string]float64, error) {
	start, err := d.Index(initial)
	if err != nil {
		return nil, err
	}
	if len(absorbing) == 0 {
		return nil, fmt.Errorf("markov dtmc: no absorbing states given")
	}
	isAbs := make(map[int]bool, len(absorbing))
	for _, name := range absorbing {
		i, err := d.Index(name)
		if err != nil {
			return nil, err
		}
		isAbs[i] = true
	}
	out := make(map[string]float64, len(absorbing))
	if isAbs[start] {
		for _, name := range absorbing {
			out[name] = 0
		}
		out[d.names[start]] = 1
		return out, nil
	}
	var transIdx []int
	transPos := make(map[int]int)
	for i := range d.names {
		if !isAbs[i] {
			transPos[i] = len(transIdx)
			transIdx = append(transIdx, i)
		}
	}
	nt := len(transIdx)
	// (I - Q)·b_a = R_a where Q is transient-to-transient, R_a is the
	// one-step probability into absorbing state a.
	iq := linalg.NewDense(nt, nt)
	for i := 0; i < nt; i++ {
		iq.Set(i, i, 1)
	}
	rhs := make(map[int][]float64, len(absorbing))
	for k := range d.from {
		t := d.edge(k)
		if isAbs[t.from] {
			continue
		}
		fp := transPos[t.from]
		if isAbs[t.to] {
			col, ok := rhs[t.to]
			if !ok {
				col = make([]float64, nt)
				rhs[t.to] = col
			}
			col[fp] += t.rate
		} else {
			iq.Add(fp, transPos[t.to], -t.rate)
		}
	}
	for _, name := range absorbing {
		gi := d.index[name]
		col, ok := rhs[gi]
		if !ok {
			out[name] = 0
			continue
		}
		b, err := linalg.LUSolve(iq, col)
		if err != nil {
			return nil, fmt.Errorf("markov dtmc absorption: %w", err)
		}
		out[name] = b[transPos[start]]
	}
	return out, nil
}
