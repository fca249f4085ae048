package modelio

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/linalg"
	"repro/internal/markov"
	"repro/internal/obs"
	"repro/internal/relstruct"
)

// This file keeps the ctmc compile that numbered the states three times
// (the chain's AddRate map, then FromNamed's map for every analysis) as
// the oracle the one numbering is checked against: structInput and
// FromNamed as they were, and a plan compiled and evaluated through them.

// refFromNamed is relstruct.FromNamed as it was: states interned in order
// of first appearance.
func refFromNamed(from, to []string, weight []float64) relstruct.Input {
	index := make(map[string]int, len(from)/2+1)
	var in relstruct.Input
	intern := func(name string) int {
		if i, ok := index[name]; ok {
			return i
		}
		i := len(in.Names)
		index[name] = i
		in.Names = append(in.Names, name)
		return i
	}
	for k := range from {
		f := intern(from[k])
		in.From = append(in.From, f)
		in.To = append(in.To, intern(to[k]))
		in.Weight = append(in.Weight, weight[k])
	}
	in.States = len(in.Names)
	return in
}

// refStructInput is structInput as it was: the transitions that name both
// endpoints, at the given rates (nil: the spec's own), through FromNamed.
func refStructInput(spec *CTMCSpec, rates []float64) relstruct.Input {
	var from, to []string
	var weight []float64
	for k, tr := range spec.Transitions {
		if tr.From == "" || tr.To == "" {
			continue
		}
		w := tr.Rate
		if rates != nil {
			w = rates[k]
		}
		from, to, weight = append(from, tr.From), append(to, tr.To), append(weight, w)
	}
	in := refFromNamed(from, to, weight)
	if in.States > 0 {
		in.Seed = relstruct.SeedSets(in.Names, spec.UpStates, spec.Absorbing)
	}
	return in
}

// refAutoLump is autoLump as it was, on refStructInput.
func refAutoLump(c *markov.CTMC, spec *CTMCSpec, rates []float64) (*markov.CTMC, map[string]string) {
	in := refStructInput(spec, rates)
	if in.States == 0 {
		return nil, nil
	}
	rep, err := relstruct.Analyze(in)
	if err != nil || !rep.Lumping.Lumpable {
		return nil, nil
	}
	names := rep.StateNames()
	blockOf := rep.Lumping.BlockOf()
	repName := make([]string, rep.Lumping.Blocks)
	for s := len(names) - 1; s >= 0; s-- {
		repName[blockOf[s]] = names[s]
	}
	toBlock := make(map[string]string, len(names))
	for s, name := range names {
		toBlock[name] = repName[blockOf[s]]
	}
	lumped, err := c.Lump(func(state string) string { return toBlock[state] }, in.Tol)
	if err != nil {
		return nil, nil
	}
	return lumped, toBlock
}

// refPlan is a plan compiled as compileCTMC did before the states were
// numbered once: AddRate per transition, a placeholder for a bad rate,
// the lumping decided through refAutoLump.
type refPlan struct {
	spec     *CTMCSpec
	chain    *markov.CTMC
	baseErr  error
	lumpEach bool
	lumped   *markov.CTMC
	toBlock  map[string]string
}

func refCompile(spec *CTMCSpec) (*refPlan, error) {
	p := &refPlan{spec: spec, chain: markov.NewCTMC()}
	for _, tr := range spec.Transitions {
		err := p.chain.AddRate(tr.From, tr.To, tr.Rate)
		if errors.Is(err, markov.ErrBadRate) {
			if p.baseErr == nil {
				p.baseErr = err
			}
			err = p.chain.AddRate(tr.From, tr.To, 1)
		}
		if err != nil {
			if p.baseErr != nil {
				return nil, p.baseErr
			}
			return nil, err
		}
	}
	if lumpEligible(spec) {
		if p.baseErr != nil {
			p.lumpEach = true
		} else {
			p.lumped, p.toBlock = refAutoLump(p.chain, spec, nil)
			p.lumpEach = p.lumped != nil
		}
	}
	return p, nil
}

// evaluate is CTMCPlan.evaluate as it was, without telemetry or rails,
// and with each rated chain built anew.
func (p *refPlan) evaluate(rates []float64) ([]Result, error) {
	spec := p.spec
	c := p.chain
	if rates == nil && p.baseErr != nil {
		return nil, p.baseErr
	}
	if rates != nil {
		// The chain at rates, built as refCompile builds it.
		c = markov.NewCTMC()
		for k, tr := range spec.Transitions {
			if err := c.AddRate(tr.From, tr.To, rates[k]); err != nil {
				return nil, err
			}
		}
	}
	initial, upStates, absorbing := spec.Initial, spec.UpStates, spec.Absorbing
	var lumped *markov.CTMC
	var toBlock map[string]string
	switch {
	case rates == nil:
		lumped, toBlock = p.lumped, p.toBlock
	case p.lumpEach:
		lumped, toBlock = refAutoLump(c, spec, rates)
	}
	if lumped != nil {
		c = lumped
		upStates = mapToBlocks(upStates, toBlock)
		absorbing = mapToBlocks(absorbing, toBlock)
		if b, ok := toBlock[initial]; ok {
			initial = b
		}
	}
	var pi []float64
	steadyState := func() ([]float64, error) {
		if pi != nil {
			return pi, nil
		}
		var err error
		pi, err = c.SteadyStateWithOptions(markov.SteadyStateOptions{Method: spec.Solver,
			SOR: linalg.SOROptions{Tol: spec.SolverTol, MaxIter: spec.SolverMaxIter, Omega: spec.SolverOmega}})
		return pi, err
	}
	var out []Result
	for _, meas := range spec.Measures {
		switch meas {
		case "steadystate":
			pi, err := steadyState()
			if err != nil {
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
			pi, err := steadyState()
			if err != nil {
				return nil, err
			}
			v, err := c.ProbSum(pi, upStates...)
			if err != nil {
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
			pt, err := c.Transient(spec.Time, p0, markov.TransientOptions{})
			if err != nil {
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
			out = append(out, Result{Measure: meas, Value: v})
		}
	}
	return out, nil
}

// sameResults reports how two solves differ, bit for bit, or "". An error
// must carry the reference's text, which a solve may wrap.
func sameResults(got []Result, gotErr error, want []Result, wantErr error) string {
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && !strings.HasSuffix(gotErr.Error(), wantErr.Error()) {
		return fmt.Sprintf("error %v, want %v", gotErr, wantErr)
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d results, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Measure != w.Measure || math.Float64bits(g.Value) != math.Float64bits(w.Value) || len(g.Detail) != len(w.Detail) {
			return fmt.Sprintf("%s = %v (%d states), want %s = %v (%d states)", g.Measure, g.Value, len(g.Detail), w.Measure, w.Value, len(w.Detail))
		}
		for k, v := range w.Detail {
			if gv, ok := g.Detail[k]; !ok || math.Float64bits(gv) != math.Float64bits(v) {
				return fmt.Sprintf("%s[%q] = %v, want %v", g.Measure, k, gv, v)
			}
		}
	}
	return ""
}

// sameReport reports how two structural reports differ, or "": their
// JSON (floats print in shortest round-trip form, so equal text is equal
// bits), state names, classes and blocks.
func sameReport(got *relstruct.StructReport, gotErr error, want *relstruct.StructReport, wantErr error) string {
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Sprintf("error %v, want %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return ""
	}
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	switch {
	case string(g) != string(w):
		return fmt.Sprintf("report\n%s\nwant\n%s", g, w)
	case !slices.Equal(got.StateNames(), want.StateNames()):
		return fmt.Sprintf("states %q, want %q", got.StateNames(), want.StateNames())
	case !slices.Equal(got.ClassOf(), want.ClassOf()) || !slices.Equal(got.Lumping.BlockOf(), want.Lumping.BlockOf()):
		return fmt.Sprintf("classes %v blocks %v, want %v %v", got.ClassOf(), got.Lumping.BlockOf(), want.ClassOf(), want.Lumping.BlockOf())
	}
	return ""
}

// randomCTMCSpec draws a small ctmc document. Its states come from a pool
// with one name possibly "", some pairs repeat, some states only receive
// transitions, and now and then a rate is invalid or a transition loops.
// One document in four is a farm of identical machines, which lumps.
func randomCTMCSpec(rng *rand.Rand) *CTMCSpec {
	measureSets := [][]string{{"availability"}, {"mtta"}, {"availability", "mtta"}, {"steadystate"}, {"transient"}, {"availability", "transient"}}
	spec := &CTMCSpec{
		Measures:      measureSets[rng.Intn(len(measureSets))],
		Solver:        []string{"", "", "gth", "chain", "sor"}[rng.Intn(5)],
		SolverMaxIter: 3000,
		Time:          0.5 + 4*rng.Float64(),
	}
	if rng.Intn(6) == 0 {
		spec.Lump = "off"
	}
	var names []string
	if rng.Intn(4) == 0 {
		m := 2 + rng.Intn(2)
		lam, mu := math.Pow(10, -rng.Float64()-1), 0.5+rng.Float64()
		state := func(s int) string { return fmt.Sprintf("%0*b", m, s) }
		for s := 0; s < 1<<m; s++ {
			names = append(names, state(s))
			for i := 0; i < m; i++ {
				rate := lam
				if s>>i&1 == 1 {
					rate = mu
				}
				spec.Transitions = append(spec.Transitions, CTMCTransition{From: state(s), To: state(s ^ 1<<i), Rate: rate})
			}
		}
	} else {
		names = []string{"a", "b", "c", "d", "e", "f", "g"}
		if rng.Intn(3) == 0 {
			names[rng.Intn(len(names))] = ""
		}
		names = names[:1+rng.Intn(len(names))]
		n := len(names)
		for k := rng.Intn(3*n + 1); k > 0; k-- {
			tr := CTMCTransition{From: names[rng.Intn(n)], To: names[rng.Intn(n)], Rate: math.Pow(10, 4*rng.Float64()-2)}
			if len(spec.Transitions) > 0 && rng.Intn(4) == 0 {
				prev := spec.Transitions[rng.Intn(len(spec.Transitions))]
				tr.From, tr.To = prev.From, prev.To
			}
			switch {
			case rng.Intn(40) == 0:
				tr.Rate = []float64{0, -1, math.Inf(1)}[rng.Intn(3)]
			case tr.From == tr.To && rng.Intn(10) != 0:
				continue
			}
			spec.Transitions = append(spec.Transitions, tr)
		}
	}
	pick := func() string { return names[rng.Intn(len(names))] }
	spec.Initial = pick()
	for i := rng.Intn(len(names) + 1); i > 0; i-- {
		spec.UpStates = append(spec.UpStates, pick())
	}
	for i := rng.Intn(3); i > 0; i-- {
		spec.Absorbing = append(spec.Absorbing, pick())
	}
	return spec
}

// checkPlanMatchesReference compares, on one document, StructReport and
// the analysis the plan lumps by with the reference's reports, and the
// one-shot, compiled and rated answers with the reference plan's, bit for
// bit. It returns whether the document's own chain lumped.
func checkPlanMatchesReference(spec *CTMCSpec, rates []float64) (bool, error) {
	got, gotErr := StructReport(spec)
	want, wantErr := relstruct.Analyze(refStructInput(spec, nil))
	if d := sameReport(got, gotErr, want, wantErr); d != "" {
		return false, fmt.Errorf("StructReport: %s", d)
	}
	doc := &Spec{Type: "ctmc", CTMC: spec}
	ref, refErr := refCompile(spec)
	oneShot, err := SolveWithOptions(doc, SolveOptions{Recorder: obs.Nop()})
	var refOut []Result
	if refErr == nil {
		refOut, refErr = ref.evaluate(nil)
	}
	if d := sameResults(oneShot, err, refOut, refErr); d != "" {
		return false, fmt.Errorf("one-shot: %s", d)
	}
	plan, err := CompileCTMC(doc)
	ref, refErr = refCompile(spec)
	if refErr == nil && ref.chain.NumStates() == 0 {
		refErr = markov.ErrEmptyChain // CompileCTMC lays out the generator
	}
	if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
		return false, fmt.Errorf("compile: error %v, want %v", err, refErr)
	}
	if err != nil {
		return false, nil
	}
	// One evaluator solves both rate vectors, as a sweep shard would.
	ev := plan.Evaluator()
	if plan.baseErr == nil {
		in := plan.idx.analysis(spec, plan.rate)
		got, gotErr := relstruct.Analyze(in)
		want, wantErr := relstruct.Analyze(refStructInput(spec, nil))
		if d := sameReport(got, gotErr, want, wantErr); d != "" {
			return false, fmt.Errorf("plan analysis: %s", d)
		}
		own, err := ev.Solve(plan.Rates(), SolveOptions{})
		wantOwn, wantErr := ref.evaluate(spec.rates())
		if d := sameResults(own, err, wantOwn, wantErr); d != "" {
			return false, fmt.Errorf("compiled at its own rates: %s", d)
		}
	}
	rated, err := ev.Solve(rates, SolveOptions{})
	wantRated, wantErr := ref.evaluate(rates)
	if d := sameResults(rated, err, wantRated, wantErr); d != "" {
		return false, fmt.Errorf("rated: %s", d)
	}
	return plan.lumped != nil, nil
}

// rates returns the document's rates in transition order.
func (c *CTMCSpec) rates() []float64 {
	out := make([]float64, len(c.Transitions))
	for k, tr := range c.Transitions {
		out[k] = tr.Rate
	}
	return out
}

// perturbed returns the document's rates each scaled by a factor in
// [0.5, 2), with now and then one made invalid.
func perturbed(rng *rand.Rand, spec *CTMCSpec) []float64 {
	rates := spec.rates()
	for k := range rates {
		rates[k] = math.Abs(rates[k]) * (0.5 + 1.5*rng.Float64())
		if rates[k] == 0 || math.IsInf(rates[k], 0) {
			rates[k] = 1
		}
	}
	if len(rates) > 0 && rng.Intn(30) == 0 {
		rates[rng.Intn(len(rates))] = 0
	}
	return rates
}

// TestPlanMatchesReference runs the reference comparison on 10,000
// seeded documents and fails if a shape it is meant to cover turns up
// too rarely to count.
func TestPlanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	var lumped, empty, dups, compileErrs int
	for i := 0; i < 10000; i++ {
		spec := randomCTMCSpec(rng)
		l, err := checkPlanMatchesReference(spec, perturbed(rng, spec))
		if err != nil {
			doc, _ := json.Marshal(spec)
			t.Fatalf("document %d %s: %v", i, doc, err)
		}
		if l {
			lumped++
		}
		seen := map[[2]string]bool{}
		for _, tr := range spec.Transitions {
			key := [2]string{tr.From, tr.To}
			if seen[key] {
				dups++
			}
			seen[key] = true
			if tr.From == "" || tr.To == "" {
				empty++
			}
		}
		if _, err := CompileCTMC(&Spec{Type: "ctmc", CTMC: spec}); err != nil {
			compileErrs++
		}
	}
	for shape, n := range map[string]int{"lumped chain": lumped, `transition touching ""`: empty,
		"duplicated pair": dups, "compile error": compileErrs} {
		if n < 50 {
			t.Errorf("only %d documents with a %s", n, shape)
		}
	}
}

// FuzzPlanMatchesReference runs the reference comparison on documents
// drawn from the fuzzer's seed.
func FuzzPlanMatchesReference(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 24} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		spec := randomCTMCSpec(rng)
		if _, err := checkPlanMatchesReference(spec, perturbed(rng, spec)); err != nil {
			t.Fatal(err)
		}
	})
}
