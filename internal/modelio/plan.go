package modelio

import (
	"errors"
	"fmt"

	"repro/internal/linalg"
	"repro/internal/markov"
	"repro/internal/obs"
)

// CTMCPlan is a ctmc document compiled for solving at many rate vectors:
// the chain's state table and transitions, the generator's sparsity
// pattern with one value slot per transition and per diagonal, and the
// lumping decision. Each Solve writes one rate vector into the pattern
// and solves the document's measures, so a parameter sweep builds the
// structure once. Every ctmc solve is a compile followed by an
// evaluation; a one-shot solve evaluates at the document's own rates and
// reuses the compiled chain as is. A plan is never modified after
// compilation, so concurrent Solve calls share it.
type CTMCPlan struct {
	doc  *Spec
	spec *CTMCSpec
	// chain holds the document's states and transitions at its own
	// rates, with 1 standing in for every rate that is not positive and
	// finite; baseErr then reports the first of those. It is held by
	// value, so a one-shot solve's plan stays on the stack whole.
	chain   markov.CTMC
	baseErr error
	// pattern holds the value slots of chain's generator, for rated
	// evaluations. One-shot solves never rate the chain and compile none.
	pattern *markov.Pattern
	// Lumping is decided once, from the document's own chain. When that
	// chain lumps (lumped and toBlock hold the reduction), or cannot be
	// analyzed because its rates are invalid, every rated evaluation
	// reruns the analysis at its own rates. Otherwise none does: solving
	// unlumped is exact.
	lumpEach bool
	lumped   *markov.CTMC
	toBlock  map[string]string
}

// CompileCTMC compiles a ctmc document for Solve. A rate that is not
// positive and finite does not fail compilation, since Solve may replace
// it; Solve checks rates per evaluation. What no rate vector can repair
// does fail it: a document that is not a ctmc, a chain without states,
// or a self-transition (reported, like every solve reports, as the first
// error in document order).
func CompileCTMC(doc *Spec) (*CTMCPlan, error) {
	if doc.Type != "ctmc" || doc.CTMC == nil {
		return nil, fmt.Errorf("%w: compile needs a ctmc document, got type %q", ErrBadSpec, doc.Type)
	}
	p, err := compileCTMC(doc, obs.Nop())
	if err != nil {
		return nil, err
	}
	if p.pattern, err = markov.NewPattern(&p.chain); err != nil {
		return nil, err
	}
	return &p, nil
}

// compileCTMC builds the chain and decides lumping; an applied lump of
// the document's own chain is recorded on rec. It returns the plan by
// value for the same reason the plan holds its chain by value.
func compileCTMC(doc *Spec, rec obs.Recorder) (CTMCPlan, error) {
	spec := doc.CTMC
	p := CTMCPlan{doc: doc, spec: spec, chain: *markov.NewCTMC()}
	for _, tr := range spec.Transitions {
		err := p.chain.AddRate(tr.From, tr.To, tr.Rate)
		if errors.Is(err, markov.ErrBadRate) {
			// The structure does not depend on rates, so a placeholder
			// completes it; an evaluation may supply a valid rate.
			if p.baseErr == nil {
				p.baseErr = err
			}
			err = p.chain.AddRate(tr.From, tr.To, 1)
		}
		if err != nil {
			if p.baseErr != nil {
				return CTMCPlan{}, p.baseErr
			}
			return CTMCPlan{}, err
		}
	}
	if lumpEligible(spec) {
		if p.baseErr != nil {
			p.lumpEach = true
		} else {
			p.lumped, p.toBlock = autoLump(&p.chain, spec, nil, rec)
			p.lumpEach = p.lumped != nil
		}
	}
	return p, nil
}

// solveCTMC compiles the document and evaluates it at its own rates.
func solveCTMC(doc *Spec, rec obs.Recorder, env solveEnv) ([]Result, error) {
	p, err := compileCTMC(doc, rec)
	if err != nil {
		return nil, err
	}
	return p.evaluate(nil, rec, env)
}

// Rates returns a copy of the document's rates, one per transition in
// document order, for the caller to change and pass to Solve.
func (p *CTMCPlan) Rates() []float64 {
	rates := make([]float64, len(p.spec.Transitions))
	for k, tr := range p.spec.Transitions {
		rates[k] = tr.Rate
	}
	return rates
}

// Solve solves the document's measures at the given rates, one per
// transition in document order, each positive and finite. Options, guard
// rails, panic recovery and errors are those of SolveWithOptions.
func (p *CTMCPlan) Solve(rates []float64, opts SolveOptions) ([]Result, error) {
	return solveWith(p.doc, opts, func(rec obs.Recorder, env solveEnv) ([]Result, error) {
		if err := enter(env); err != nil {
			return nil, err
		}
		return p.evaluate(rates, rec, env)
	})
}

// evaluate solves the document's measures at rates (nil: its own).
func (p *CTMCPlan) evaluate(rates []float64, rec obs.Recorder, env solveEnv) ([]Result, error) {
	spec := p.spec
	c := &p.chain
	if rates == nil && p.baseErr != nil {
		return nil, p.baseErr
	}
	if rates != nil {
		var err error
		if c, err = c.WithRates(rates); err != nil {
			return nil, err
		}
	}
	if rec.Enabled() {
		rec.Set(obs.I("states", c.NumStates()), obs.I("transitions", len(spec.Transitions)))
	}
	initial, upStates, absorbing := spec.Initial, spec.UpStates, spec.Absorbing
	var lumped *markov.CTMC
	var toBlock map[string]string
	switch {
	case rates == nil:
		lumped, toBlock = p.lumped, p.toBlock
	case p.lumpEach:
		lumped, toBlock = autoLump(c, spec, rates, rec)
	}
	if lumped != nil {
		c = lumped
		upStates = mapToBlocks(upStates, toBlock)
		absorbing = mapToBlocks(absorbing, toBlock)
		if b, ok := toBlock[initial]; ok {
			initial = b
		}
	}
	// The stationary vector is solved on first use, once for all
	// measures, from a generator written into the compiled pattern for a
	// rated chain and assembled otherwise.
	var pi []float64
	steadyState := func(sp obs.Recorder) ([]float64, error) {
		if pi != nil {
			return pi, nil
		}
		var q *linalg.CSR
		var err error
		if rates != nil && lumped == nil {
			q, err = p.pattern.Fill(c)
		} else {
			q, err = c.Generator()
		}
		if err != nil {
			return nil, err
		}
		pi, err = c.SteadyStateFrom(q, markov.SteadyStateOptions{
			Method: spec.Solver,
			SOR: linalg.SOROptions{
				Tol:     spec.SolverTol,
				MaxIter: spec.SolverMaxIter,
				Omega:   spec.SolverOmega,
			},
			Recorder: sp,
			Ctx:      env.ctx,
		})
		return pi, err
	}
	var out []Result
	for _, meas := range spec.Measures {
		sp := measureSpan(rec, meas)
		switch meas {
		case "steadystate":
			pi, err := steadyState(sp)
			if err != nil {
				return nil, err
			}
			if err := env.rails.CheckProbVector("ctmc.steadystate", pi); err != nil {
				return nil, err
			}
			detail, err := c.ProbMap(pi)
			if err != nil {
				return nil, err
			}
			out = append(out, Result{Measure: meas, Detail: detail})
		case "availability":
			if len(upStates) == 0 {
				return nil, fmt.Errorf("%w: availability needs upStates", ErrBadSpec)
			}
			pi, err := steadyState(sp)
			if err != nil {
				return nil, err
			}
			if err := env.rails.CheckProbVector("ctmc.availability", pi); err != nil {
				return nil, err
			}
			v, err := c.ProbSum(pi, upStates...)
			if err != nil {
				return nil, err
			}
			if err := env.rails.CheckUnitInterval("ctmc.availability", v); err != nil {
				return nil, err
			}
			out = append(out, Result{Measure: meas, Value: v})
		case "transient":
			if spec.Initial == "" || spec.Time <= 0 {
				return nil, fmt.Errorf("%w: transient needs initial and positive time", ErrBadSpec)
			}
			p0, err := c.InitialAt(spec.Initial)
			if err != nil {
				return nil, err
			}
			pt, err := c.Transient(spec.Time, p0, markov.TransientOptions{Recorder: sp, Ctx: env.ctx})
			if err != nil {
				return nil, err
			}
			if err := env.rails.CheckProbVector("ctmc.transient", pt); err != nil {
				return nil, err
			}
			detail, err := c.ProbMap(pt)
			if err != nil {
				return nil, err
			}
			out = append(out, Result{Measure: meas, Detail: detail})
		case "mtta":
			if initial == "" || len(absorbing) == 0 {
				return nil, fmt.Errorf("%w: mtta needs initial and absorbing states", ErrBadSpec)
			}
			v, err := c.MTTF(initial, absorbing...)
			if err != nil {
				return nil, err
			}
			if err := env.rails.CheckFiniteScalar("ctmc.mtta", v); err != nil {
				return nil, err
			}
			out = append(out, Result{Measure: meas, Value: v})
		default:
			return nil, fmt.Errorf("%w: unknown ctmc measure %q", ErrBadSpec, meas)
		}
		sp.End()
	}
	return out, nil
}
