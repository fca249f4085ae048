package modelio

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/failpoint"
	"repro/internal/faulttree"
	"repro/internal/guard"
	"repro/internal/hier"
	"repro/internal/linalg"
	"repro/internal/markov"
	"repro/internal/obs"
	"repro/internal/rbd"
	"repro/internal/relgraph"
)

// Result is one computed measure.
type Result struct {
	// Measure names the measure.
	Measure string `json:"measure"`
	// Value holds a scalar result (NaN-free; unused for set results). For
	// degraded bounds-only answers it is the conservative endpoint of
	// Bound (see SolveBounds).
	Value float64 `json:"value,omitempty"`
	// Sets holds set-valued results (cut sets, path sets).
	Sets [][]string `json:"sets,omitempty"`
	// Detail holds per-item results (importance measures).
	Detail map[string]float64 `json:"detail,omitempty"`
	// Bound carries the certified interval of a degraded bounds-only
	// answer (nil for exact results).
	Bound *Bound `json:"bound,omitempty"`
}

// Bound is a certified interval attached to a degraded bounds-only
// Result: the true value provably lies in [Lower, Upper].
type Bound struct {
	Lower  float64 `json:"lower"`
	Upper  float64 `json:"upper"`
	Method string  `json:"method"`
}

// SolveOptions configures optional solver-entry behavior.
type SolveOptions struct {
	// Recorder receives solver telemetry as a tree of nested spans (nil
	// disables; see internal/obs). Attach an *obs.Trace to render the
	// solve as JSON or an indented text trace.
	Recorder obs.Recorder
	// Context interrupts iterative solvers at iteration granularity; an
	// interrupted solve returns an error matching guard.ErrCanceled or
	// guard.ErrDeadline. Nil never interrupts.
	Context context.Context
	// Timeout, when positive, bounds the whole solve by deriving a
	// deadline from Context (or the background context when Context is
	// nil).
	Timeout time.Duration
	// Rails selects the numerical guard-rail strictness applied at solver
	// boundaries: guard.Strict fails the solve on violated invariants
	// (non-finite outputs, lost probability mass), guard.Warn (the ""
	// default) records them in the trace, guard.Off disables the checks.
	Rails guard.Strictness
}

// solveEnv carries the per-solve robustness state through the dispatcher.
type solveEnv struct {
	ctx   context.Context
	rails guard.Rails
}

// ErrNoConvergence marks an iterative solver that exhausted its iteration
// budget, surfaced uniformly through SolveWithOptions regardless of which
// layer (linalg sweep, hierarchical fixed point) failed to converge. The
// wrapped chain retains the typed per-layer error (linalg.ErrNoConvergence,
// hier.NoConvergenceError) for errors.As.
var ErrNoConvergence = errors.New("modelio: solver did not converge")

// wrapConvergence folds the per-layer typed non-convergence errors into
// the package-level ErrNoConvergence sentinel, keeping the original chain.
func wrapConvergence(err error) error {
	if err == nil {
		return nil
	}
	var lerr *linalg.ErrNoConvergence
	if errors.As(err, &lerr) {
		return fmt.Errorf("%w (%d iterations, residual %g): %w", ErrNoConvergence, lerr.Iter, lerr.Residual, err)
	}
	var herr *hier.NoConvergenceError
	if errors.As(err, &herr) {
		return fmt.Errorf("%w (%d sweeps, last delta %g): %w", ErrNoConvergence, herr.Iterations, herr.LastDelta, err)
	}
	return err
}

// SolveWithOptions evaluates the specification, recording solver
// telemetry (see SolveOptions.Recorder). Panics escaping a solver are
// converted into a *guard.InternalError rather than crashing the caller.
// It does not lint: callers that want the static checks first run
// lint.Check on the spec.
func SolveWithOptions(s *Spec, opts SolveOptions) ([]Result, error) {
	return solveWith(s, opts, func(rec obs.Recorder, env solveEnv) ([]Result, error) {
		return solve(s, rec, env)
	})
}

// solveWith runs one solve of s under opts: guard-rail mode, the
// modelio.solve span, panic recovery, and the timeout.
func solveWith(s *Spec, opts SolveOptions, run func(obs.Recorder, solveEnv) ([]Result, error)) (results []Result, err error) {
	mode, err := guard.ParseStrictness(string(opts.Rails))
	if err != nil {
		return nil, err
	}
	rec := obs.Or(opts.Recorder)
	if rec.Enabled() {
		rec = rec.Span("modelio.solve", obs.S("type", s.Type), obs.S("model", s.Name))
		defer rec.End()
	}
	defer guard.RecoverPanic(&err, rec, "modelio.solve")
	ctx := opts.Context
	if opts.Timeout > 0 {
		if ctx == nil {
			ctx = context.Background()
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	env := solveEnv{ctx: ctx, rails: guard.Rails{Mode: mode, Recorder: rec}}
	results, err = run(rec, env)
	return results, wrapConvergence(err)
}

// Solve evaluates every requested measure of the specification.
func Solve(s *Spec) (results []Result, err error) {
	defer guard.RecoverPanic(&err, nil, "modelio.solve")
	results, err = solve(s, obs.Nop(), solveEnv{})
	return results, wrapConvergence(err)
}

// enter is the gate every solve passes before building its model: an
// already-interrupted context and the model-build failpoint.
func enter(env solveEnv) error {
	if err := guard.Ctx(env.ctx, "modelio.solve", 0, math.NaN()); err != nil {
		return err
	}
	return failpoint.InjectCtx(env.ctx, fpBuild)
}

func solve(s *Spec, rec obs.Recorder, env solveEnv) ([]Result, error) {
	if err := enter(env); err != nil {
		return nil, err
	}
	switch s.Type {
	case "rbd":
		return solveRBD(s.RBD, rec, env)
	case "faulttree":
		return solveFaultTree(s.FaultTree, rec, env)
	case "ctmc":
		return solveCTMC(s, rec, env)
	case "relgraph":
		return solveRelGraph(s.RelGraph, rec)
	case "spn":
		return solveSPN(s.SPN, rec)
	default:
		return nil, fmt.Errorf("%w: unknown type %q", ErrBadSpec, s.Type)
	}
}

// measureSpan opens one span per requested measure so the trace tree
// mirrors the model's measure list.
func measureSpan(rec obs.Recorder, meas string) obs.Recorder {
	if !rec.Enabled() {
		return rec
	}
	return rec.Span("measure:" + meas)
}

func solveRBD(spec *RBDSpec, rec obs.Recorder, env solveEnv) ([]Result, error) {
	if spec.Structure == nil {
		return nil, fmt.Errorf("%w: rbd without structure", ErrBadSpec)
	}
	pool, err := buildRBDPool(spec)
	if err != nil {
		return nil, err
	}
	block, err := buildBlock(spec.Structure, pool)
	if err != nil {
		return nil, err
	}
	m, err := rbd.New(block)
	if err != nil {
		return nil, err
	}
	if rec.Enabled() {
		st := m.BDDStats()
		rec.Set(obs.S("solver", "bdd"), obs.I("components", len(spec.Components)),
			obs.I("bdd_nodes", m.BDDSize()),
			obs.I64("bdd_ite_hits", st.ITEHits), obs.I64("bdd_ite_misses", st.ITEMisses))
	}
	var out []Result
	for _, meas := range spec.Measures {
		sp := measureSpan(rec, meas)
		switch meas {
		case "availability":
			v, err := m.SteadyStateAvailability()
			if err != nil {
				return nil, err
			}
			if err := env.rails.CheckUnitInterval("rbd.availability", v); err != nil {
				return nil, err
			}
			out = append(out, Result{Measure: meas, Value: v})
		case "mttf":
			v, err := m.MTTF()
			if err != nil {
				return nil, err
			}
			if err := env.rails.CheckFiniteScalar("rbd.mttf", v); err != nil {
				return nil, err
			}
			out = append(out, Result{Measure: meas, Value: v})
		case "reliability":
			if spec.Time <= 0 {
				return nil, fmt.Errorf("%w: reliability needs a positive time", ErrBadSpec)
			}
			v, err := m.ReliabilityAt(spec.Time)
			if err != nil {
				return nil, err
			}
			if err := env.rails.CheckUnitInterval("rbd.reliability", v); err != nil {
				return nil, err
			}
			out = append(out, Result{Measure: meas, Value: v})
		case "mincuts":
			cuts := m.MinimalCutSets()
			sp.Set(obs.I("mincuts", len(cuts)))
			out = append(out, Result{Measure: meas, Sets: cuts})
		case "importance":
			if spec.Time <= 0 {
				return nil, fmt.Errorf("%w: importance needs a positive time", ErrBadSpec)
			}
			imps, err := m.ImportanceAt(spec.Time)
			if err != nil {
				return nil, err
			}
			detail := make(map[string]float64, len(imps))
			for _, im := range imps {
				detail[im.Component] = im.Birnbaum
			}
			out = append(out, Result{Measure: meas, Detail: detail})
		default:
			return nil, fmt.Errorf("%w: unknown rbd measure %q", ErrBadSpec, meas)
		}
		sp.End()
	}
	return out, nil
}

func buildBlock(b *BlockSpec, pool map[string]*rbd.Component) (*rbd.Block, error) {
	if b == nil {
		return nil, fmt.Errorf("%w: nil block", ErrBadSpec)
	}
	if b.Comp != "" {
		c, ok := pool[b.Comp]
		if !ok {
			return nil, fmt.Errorf("%w: unknown component %q", ErrBadSpec, b.Comp)
		}
		return rbd.Comp(c), nil
	}
	children := make([]*rbd.Block, len(b.Children))
	for i, cs := range b.Children {
		child, err := buildBlock(cs, pool)
		if err != nil {
			return nil, err
		}
		children[i] = child
	}
	switch b.Op {
	case "series":
		return rbd.Series(children...), nil
	case "parallel":
		return rbd.Parallel(children...), nil
	case "kofn":
		return rbd.KOfN(b.K, children...), nil
	default:
		return nil, fmt.Errorf("%w: unknown block op %q", ErrBadSpec, b.Op)
	}
}

func solveFaultTree(spec *FaultTreeSpec, rec obs.Recorder, env solveEnv) ([]Result, error) {
	if spec.Top == nil {
		return nil, fmt.Errorf("%w: faulttree without top gate", ErrBadSpec)
	}
	pool, err := buildFTPool(spec)
	if err != nil {
		return nil, err
	}
	node, err := buildGate(spec.Top, pool)
	if err != nil {
		return nil, err
	}
	if spec.BDDBudget > 0 {
		// The Boeing path: exact BDD analysis inside the node budget,
		// falling back to MOCUS cut sets with rare-event bounds beyond it.
		out, _, err := guard.RunChain(env.ctx, rec, "faulttree",
			guard.Step[[]Result]{Name: "bdd", Run: func(_ context.Context, arec obs.Recorder) ([]Result, error) {
				tree, err := faulttree.NewWithBudget(node, spec.BDDBudget)
				if err != nil {
					return nil, err
				}
				return faultTreeMeasures(spec, tree, arec, env)
			}},
			guard.Step[[]Result]{Name: "mocus-bounds", Run: func(_ context.Context, arec obs.Recorder) ([]Result, error) {
				tree, err := faulttree.NewCutSetsOnly(node)
				if err != nil {
					return nil, err
				}
				return faultTreeBoundMeasures(spec, tree, arec, env)
			}},
		)
		return out, err
	}
	tree, err := faulttree.New(node)
	if err != nil {
		return nil, err
	}
	return faultTreeMeasures(spec, tree, rec, env)
}

// faultTreeMeasures evaluates the requested measures on a BDD-compiled
// tree.
func faultTreeMeasures(spec *FaultTreeSpec, tree *faulttree.Tree, rec obs.Recorder, env solveEnv) ([]Result, error) {
	if rec.Enabled() {
		st := tree.BDDStats()
		rec.Set(obs.S("solver", "bdd"), obs.I("events", len(spec.Events)),
			obs.I("bdd_nodes", tree.BDDSize()),
			obs.I64("bdd_ite_hits", st.ITEHits), obs.I64("bdd_ite_misses", st.ITEMisses))
	}
	var out []Result
	for _, meas := range spec.Measures {
		sp := measureSpan(rec, meas)
		switch meas {
		case "top":
			v, err := tree.TopStatic()
			if err != nil {
				return nil, err
			}
			if err := env.rails.CheckUnitInterval("faulttree.top", v); err != nil {
				return nil, err
			}
			out = append(out, Result{Measure: meas, Value: v})
		case "mincuts":
			cuts := tree.MinimalCutSets()
			sp.Set(obs.I("mincuts", len(cuts)))
			out = append(out, Result{Measure: meas, Sets: cuts})
		case "rare-event":
			v, err := tree.RareEventBound()
			if err != nil {
				return nil, err
			}
			out = append(out, Result{Measure: meas, Value: v})
		case "importance":
			imps, err := tree.Importance()
			if err != nil {
				return nil, err
			}
			detail := make(map[string]float64, len(imps))
			for _, im := range imps {
				detail[im.Event] = im.Birnbaum
			}
			out = append(out, Result{Measure: meas, Detail: detail})
		case "topAt":
			if spec.Time <= 0 {
				return nil, fmt.Errorf("%w: topAt needs a positive time", ErrBadSpec)
			}
			v, err := tree.TopAt(spec.Time)
			if err != nil {
				return nil, err
			}
			if err := env.rails.CheckUnitInterval("faulttree.topAt", v); err != nil {
				return nil, err
			}
			out = append(out, Result{Measure: meas, Value: v})
		case "mttf":
			v, err := tree.MTTF()
			if err != nil {
				return nil, err
			}
			if err := env.rails.CheckFiniteScalar("faulttree.mttf", v); err != nil {
				return nil, err
			}
			out = append(out, Result{Measure: meas, Value: v})
		default:
			return nil, fmt.Errorf("%w: unknown faulttree measure %q", ErrBadSpec, meas)
		}
		sp.End()
	}
	return out, nil
}

// faultTreeBoundMeasures evaluates the measures a cut-sets-only tree can
// support: exact probabilities are replaced by the rare-event upper bound,
// computed in log space so heavily redundant cuts do not underflow. The
// BDD-only measures (importance, topAt, mttf) fail with a structural error
// rather than silently degrading.
func faultTreeBoundMeasures(spec *FaultTreeSpec, tree *faulttree.Tree, rec obs.Recorder, env solveEnv) ([]Result, error) {
	cuts, err := tree.CutSets()
	if err != nil {
		return nil, err
	}
	if rec.Enabled() {
		rec.Set(obs.S("solver", "mocus-bounds"), obs.I("events", len(spec.Events)),
			obs.I("mincuts", len(cuts)), obs.S("approx", "rare-event-bound"))
	}
	var out []Result
	for _, meas := range spec.Measures {
		sp := measureSpan(rec, meas)
		switch meas {
		case "top", "rare-event":
			lb, err := tree.RareEventBoundLog()
			if err != nil {
				return nil, err
			}
			v := math.Exp(lb)
			if err := env.rails.CheckUnitInterval("faulttree.bound."+meas, v); err != nil {
				return nil, err
			}
			sp.Set(obs.S("approx", "rare-event-bound"), obs.F("log_bound", lb))
			out = append(out, Result{Measure: meas, Value: v})
		case "mincuts":
			sp.Set(obs.I("mincuts", len(cuts)))
			out = append(out, Result{Measure: meas, Sets: cuts})
		default:
			return nil, fmt.Errorf("%w: measure %q needs an exact BDD; raise bddBudget or drop the measure", ErrBadSpec, meas)
		}
		sp.End()
	}
	return out, nil
}

func buildGate(g *GateSpec, pool map[string]*faulttree.Event) (*faulttree.Node, error) {
	if g == nil {
		return nil, fmt.Errorf("%w: nil gate", ErrBadSpec)
	}
	if g.Event != "" {
		e, ok := pool[g.Event]
		if !ok {
			return nil, fmt.Errorf("%w: unknown event %q", ErrBadSpec, g.Event)
		}
		return faulttree.Basic(e), nil
	}
	children := make([]*faulttree.Node, len(g.Children))
	for i, cs := range g.Children {
		child, err := buildGate(cs, pool)
		if err != nil {
			return nil, err
		}
		children[i] = child
	}
	switch g.Op {
	case "and":
		return faulttree.And(children...), nil
	case "or":
		return faulttree.Or(children...), nil
	case "atleast":
		return faulttree.AtLeast(g.K, children...), nil
	case "not":
		if len(children) != 1 {
			return nil, fmt.Errorf("%w: not takes one child", ErrBadSpec)
		}
		return faulttree.Not(children[0]), nil
	default:
		return nil, fmt.Errorf("%w: unknown gate op %q", ErrBadSpec, g.Op)
	}
}

func solveRelGraph(spec *RelGraphSpec, rec obs.Recorder) ([]Result, error) {
	g := relgraph.New()
	for _, es := range spec.Edges {
		if err := g.AddEdge(relgraph.Edge{Name: es.Name, From: es.From, To: es.To, Rel: es.Rel}); err != nil {
			return nil, err
		}
	}
	if rec.Enabled() {
		rec.Set(obs.S("solver", "factoring"), obs.I("edges", len(spec.Edges)))
	}
	var out []Result
	for _, meas := range spec.Measures {
		sp := measureSpan(rec, meas)
		switch meas {
		case "reliability":
			v, err := g.Reliability(spec.Source, spec.Target)
			if err != nil {
				return nil, err
			}
			out = append(out, Result{Measure: meas, Value: v})
		case "minpaths":
			paths, err := g.MinimalPaths(spec.Source, spec.Target)
			if err != nil {
				return nil, err
			}
			sp.Set(obs.I("minpaths", len(paths)))
			out = append(out, Result{Measure: meas, Sets: paths})
		case "mincuts":
			cuts, err := g.MinimalCuts(spec.Source, spec.Target)
			if err != nil {
				return nil, err
			}
			sp.Set(obs.I("mincuts", len(cuts)))
			out = append(out, Result{Measure: meas, Sets: cuts})
		default:
			return nil, fmt.Errorf("%w: unknown relgraph measure %q", ErrBadSpec, meas)
		}
		sp.End()
	}
	return out, nil
}

// WriteDOT renders the model's structure as Graphviz DOT. Supported for
// CTMC specifications (state diagram) and SPN specifications (Petri net);
// other model families have no canonical graph rendering here.
func WriteDOT(s *Spec, w io.Writer) error {
	switch s.Type {
	case "ctmc":
		c := markov.NewCTMC()
		for _, tr := range s.CTMC.Transitions {
			if err := c.AddRate(tr.From, tr.To, tr.Rate); err != nil {
				return err
			}
		}
		up := make(map[string]bool, len(s.CTMC.UpStates))
		for _, name := range s.CTMC.UpStates {
			up[name] = true
		}
		highlight := func(state string) bool {
			return len(up) > 0 && !up[state]
		}
		return c.WriteDOT(w, s.Name, highlight)
	case "spn":
		n, err := buildSPN(s.SPN)
		if err != nil {
			return err
		}
		return n.WriteDOT(w, s.Name)
	default:
		return fmt.Errorf("%w: no DOT rendering for model type %q", ErrBadSpec, s.Type)
	}
}

// Render formats results as a human-readable report.
func Render(name string, results []Result) string {
	var sb strings.Builder
	if name != "" {
		fmt.Fprintf(&sb, "model: %s\n", name)
	}
	for _, r := range results {
		switch {
		case r.Sets != nil:
			fmt.Fprintf(&sb, "%s (%d sets):\n", r.Measure, len(r.Sets))
			for _, set := range r.Sets {
				fmt.Fprintf(&sb, "  {%s}\n", strings.Join(set, ", "))
			}
		case r.Detail != nil:
			fmt.Fprintf(&sb, "%s:\n", r.Measure)
			keys := make([]string, 0, len(r.Detail))
			for k := range r.Detail {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&sb, "  %-20s %.10g\n", k, r.Detail[k])
			}
		default:
			fmt.Fprintf(&sb, "%-20s %.10g\n", r.Measure, r.Value)
		}
	}
	return sb.String()
}
