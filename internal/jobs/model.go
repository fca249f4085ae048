package jobs

import (
	"context"
	"fmt"

	"repro/internal/modelio"
	"repro/internal/uncertainty"
)

// sweep is a compiled job spec: the model document compiled into a
// modelio.CTMCPlan for the swept measure, the uncertainty parameters,
// and the transition indices each parameter rewrites. Compilation
// happens once per submission (and once per resume): it builds the
// chain's state table, generator pattern and lumping decision, so each
// sample only writes its rates and solves, in buffers its shard attempt
// owns (see model).
type sweep struct {
	spec    *Spec
	ctmc    *modelio.CTMCPlan
	rates   []float64 // the document's rates, never written
	params  []uncertainty.Param
	targets []paramTarget
}

// paramTarget maps one parameter onto the CTMC transitions it rewrites.
type paramTarget struct {
	name  string
	idxs  []int
	scale bool
}

// compile validates the spec and builds the sweep. Every validation
// failure wraps ErrBadSpec so the HTTP layer can answer 400 uniformly.
func compile(s *Spec) (*sweep, error) {
	if s.Samples <= 0 {
		return nil, fmt.Errorf("%w: samples must be positive, got %d", ErrBadSpec, s.Samples)
	}
	if len(s.Model) == 0 {
		return nil, fmt.Errorf("%w: missing model document", ErrBadSpec)
	}
	// The model decodes as modelio.Parse decodes it, unknown fields
	// refused, so a model /solve rejects is not swept. Parse itself is not
	// called: it would evaluate the modelio.parse failpoint at submission
	// and on every WAL replay.
	doc, err := modelio.DecodeBytes(s.Model)
	if err != nil {
		return nil, fmt.Errorf("%w: model document: %v", ErrBadSpec, err)
	}
	if doc.Type != "ctmc" || doc.CTMC == nil {
		return nil, fmt.Errorf("%w: sweeps support ctmc models only, got type %q", ErrBadSpec, doc.Type)
	}
	switch s.Measure {
	case "availability", "mtta":
	default:
		return nil, fmt.Errorf("%w: measure %q is not a scalar ctmc sweep measure (want availability or mtta)", ErrBadSpec, s.Measure)
	}
	if len(s.Params) == 0 {
		return nil, fmt.Errorf("%w: no uncertain parameters", ErrBadSpec)
	}
	for _, p := range s.Quantiles {
		if !(p > 0 && p < 1) {
			return nil, fmt.Errorf("%w: quantile %g outside (0,1)", ErrBadSpec, p)
		}
	}
	sw := &sweep{spec: s}
	seen := make(map[string]bool, len(s.Params))
	for i, ps := range s.Params {
		if ps.Name == "" {
			return nil, fmt.Errorf("%w: parameter %d has no name", ErrBadSpec, i)
		}
		if seen[ps.Name] {
			return nil, fmt.Errorf("%w: duplicate parameter %q", ErrBadSpec, ps.Name)
		}
		seen[ps.Name] = true
		d, err := ps.Dist.Distribution()
		if err != nil {
			return nil, fmt.Errorf("%w: parameter %q: %v", ErrBadSpec, ps.Name, err)
		}
		t := paramTarget{name: ps.Name, scale: ps.Scale}
		for j, tr := range doc.CTMC.Transitions {
			if tr.From == ps.From && tr.To == ps.To {
				t.idxs = append(t.idxs, j)
			}
		}
		if len(t.idxs) == 0 {
			return nil, fmt.Errorf("%w: parameter %q targets no transition %s->%s", ErrBadSpec, ps.Name, ps.From, ps.To)
		}
		sw.params = append(sw.params, uncertainty.Param{Name: ps.Name, Dist: d})
		sw.targets = append(sw.targets, t)
	}
	// Only the swept measure is solved, and lumping is decided for it.
	ctmc := *doc.CTMC
	ctmc.Measures = []string{s.Measure}
	plan, err := modelio.CompileCTMC(&modelio.Spec{Type: "ctmc", Name: doc.Name, CTMC: &ctmc})
	if err != nil {
		return nil, fmt.Errorf("%w: model document: %v", ErrBadSpec, err)
	}
	sw.ctmc, sw.rates = plan, plan.Rates()
	return sw, nil
}

// plan returns the deterministic plan for shard i: every shard is
// ShardSize samples except a shorter final remainder shard.
func (sw *sweep) plan(i int) uncertainty.ShardPlan {
	s := sw.spec
	size := s.ShardSize
	if last := s.Samples - i*s.ShardSize; last < size {
		size = last
	}
	return uncertainty.ShardPlan{Index: i, Size: size, Seed: s.Seed, Quantiles: s.Quantiles}
}

// model builds the per-sample evaluator of one shard attempt: write the
// sampled assignment into a copy of the document's rates and solve the
// compiled plan at them. The plan is shared by every shard and never
// written; the rate vector and the plan's Evaluator, which owns every
// buffer a rated solve needs, belong to the model, so a sample that
// neither lumps nor leaves SOR allocates nothing, and one model must not
// be shared between goroutines.
func (sw *sweep) model(ctx context.Context) uncertainty.Model {
	measure := sw.spec.Measure
	ev := sw.ctmc.Evaluator()
	rates := make([]float64, len(sw.rates))
	opts := modelio.SolveOptions{Context: ctx}
	return func(assign map[string]float64) (float64, error) {
		copy(rates, sw.rates)
		for _, t := range sw.targets {
			x := assign[t.name]
			for _, j := range t.idxs {
				if t.scale {
					rates[j] = sw.rates[j] * x
				} else {
					rates[j] = x
				}
				if !(rates[j] > 0) {
					return 0, fmt.Errorf("jobs: parameter %q drew non-positive rate %g", t.name, rates[j])
				}
			}
		}
		results, err := ev.Solve(rates, opts)
		if err != nil {
			return 0, err
		}
		for _, r := range results {
			if r.Measure == measure {
				return r.Value, nil
			}
		}
		return 0, fmt.Errorf("jobs: solver returned no %q result", measure)
	}
}
