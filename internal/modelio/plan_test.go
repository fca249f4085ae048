package modelio

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/markov"
)

func ctmcFixtures(t *testing.T) map[string]*Spec {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "models", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]*Spec)
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := Parse(strings.NewReader(string(raw)))
		if err != nil {
			t.Fatal(err)
		}
		if spec.Type == "ctmc" {
			out[filepath.Base(p)] = spec
		}
	}
	if len(out) == 0 {
		t.Fatal("no ctmc fixtures")
	}
	return out
}

// TestCTMCPlanMatchesSolve checks that a compiled plan, solved at the
// document's own rates written into its pattern, answers every ctmc
// fixture exactly as a one-shot solve does.
func TestCTMCPlanMatchesSolve(t *testing.T) {
	for name, spec := range ctmcFixtures(t) {
		t.Run(name, func(t *testing.T) {
			want, werr := SolveWithOptions(spec, SolveOptions{})
			p, err := CompileCTMC(spec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.Evaluator().Solve(p.Rates(), SolveOptions{})
			if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
				t.Fatalf("error %v, want %v", err, werr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("results %+v, want %+v", got, want)
			}
		})
	}
}

// TestCTMCPlanRateErrors pins where each kind of bad document fails: a
// rate that is not positive fails each solve at it, exactly as a one-shot
// solve fails, while compilation accepts it; a self-transition fails
// compilation with the one-shot error.
func TestCTMCPlanRateErrors(t *testing.T) {
	zero, err := Parse(strings.NewReader(`{"type":"ctmc","ctmc":{"transitions":[
		{"from":"up","to":"down","rate":0},{"from":"down","to":"up","rate":1}],
		"upStates":["up"],"measures":["availability"]}}`))
	if err != nil {
		t.Fatal(err)
	}
	_, want := SolveWithOptions(zero, SolveOptions{})
	if !errors.Is(want, markov.ErrBadRate) {
		t.Fatalf("one-shot solve: %v, want ErrBadRate", want)
	}
	p, err := CompileCTMC(zero)
	if err != nil {
		t.Fatalf("compile rejected a rate an evaluation may replace: %v", err)
	}
	ev := p.Evaluator()
	if _, err := ev.Solve(p.Rates(), SolveOptions{}); err == nil || err.Error() != want.Error() {
		t.Fatalf("solve at own rates: %v, want %v", err, want)
	}
	if _, err := ev.Solve([]float64{-1, 1}, SolveOptions{}); !errors.Is(err, markov.ErrBadRate) {
		t.Fatalf("solve at a negative rate: %v, want ErrBadRate", err)
	}
	res, err := ev.Solve([]float64{1, 3}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := scalar(t, res, "availability"); math.Abs(got-0.75) > 1e-15 {
		t.Fatalf("availability %g, want 0.75", got)
	}

	loop, err := Parse(strings.NewReader(`{"type":"ctmc","ctmc":{"transitions":[
		{"from":"up","to":"down","rate":1},{"from":"down","to":"down","rate":1}],
		"upStates":["up"],"measures":["availability"]}}`))
	if err != nil {
		t.Fatal(err)
	}
	_, want = SolveWithOptions(loop, SolveOptions{})
	if _, err := CompileCTMC(loop); err == nil || err.Error() != want.Error() {
		t.Fatalf("compile with a self-transition: %v, want %v", err, want)
	}
}

// TestCTMCPlanSolveAllocs pins the allocations of one rated solve
// through a reused evaluator: models/repairfarm.json's availability, as
// a sweep shard solves it per sample. The evaluator owns every buffer the
// solve needs, and the plan finds the chain's closed classes, which its
// explicit "sor" checks, once and not per solve, so a sample allocates
// nothing.
func TestCTMCPlanSolveAllocs(t *testing.T) {
	spec := ctmcFixtures(t)["repairfarm.json"]
	ctmc := *spec.CTMC
	ctmc.Measures = []string{"availability"}
	p, err := CompileCTMC(&Spec{Type: "ctmc", Name: spec.Name, CTMC: &ctmc})
	if err != nil {
		t.Fatal(err)
	}
	ev := p.Evaluator()
	rates := p.Rates()
	opts := SolveOptions{Context: context.Background()}
	got := testing.AllocsPerRun(100, func() {
		if _, err := ev.Solve(rates, opts); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("%v allocations per rated solve, want 0", got)
	}
}

// TestCTMCPlanConcurrentSolve evaluates one plan from several goroutines
// at once, each through its own evaluator; each must get the answer a
// lone evaluation gets. Run it under -race: the plan is shared and must
// never be written after compile.
func TestCTMCPlanConcurrentSolve(t *testing.T) {
	for _, name := range []string{"repairfarm.json", "stiff.json", "lumpable.json"} {
		spec := ctmcFixtures(t)[name]
		p, err := CompileCTMC(spec)
		if err != nil {
			t.Fatal(err)
		}
		const workers, evals = 4, 25
		rates := func(w, i int) []float64 {
			r := p.Rates()
			for k := range r {
				r[k] *= 1 + float64((w*evals+i+k)%7)/16
			}
			return r
		}
		want := make([][]Result, workers*evals)
		for w := 0; w < workers; w++ {
			for i := 0; i < evals; i++ {
				if want[w*evals+i], err = p.Evaluator().Solve(rates(w, i), SolveOptions{}); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ev := p.Evaluator()
				for i := 0; i < evals; i++ {
					got, err := ev.Solve(rates(w, i), SolveOptions{})
					if err != nil {
						t.Errorf("%s: worker %d eval %d: %v", name, w, i, err)
						return
					}
					if !reflect.DeepEqual(got, want[w*evals+i]) {
						t.Errorf("%s: worker %d eval %d: %+v, want %+v", name, w, i, got, want[w*evals+i])
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
}

// cancelOnCall is a context that is canceled from the n-th call of Done
// on. guard.Ctx reads Done once as a solve enters and once before each
// SOR sweep, so n = 5 cancels a solve by SOR after its third sweep.
type cancelOnCall struct {
	context.Context
	n int
}

var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

func (c *cancelOnCall) Done() <-chan struct{} {
	if c.n--; c.n <= 0 {
		return closedDone
	}
	return nil
}

func (c *cancelOnCall) Err() error {
	if c.n <= 0 {
		return context.Canceled
	}
	return nil
}

// TestEvaluatorKeepsNoState reuses one evaluator per plan across seeded
// rate vectors, on the six plans a sweep's solver paths take, with
// failing samples interleaved: a NaN rate, a context canceled in the
// middle of SOR, and solverMaxIter 1 (the plan reads its document's
// solver settings per evaluation, so the test sets it for one sample).
// Each answer must have the bits, and each error the text, that a fresh
// evaluator gives on the same sample.
func TestEvaluatorKeepsNoState(t *testing.T) {
	fx := ctmcFixtures(t)
	swept := func(name, measure string) *CTMCSpec {
		c := *fx[name].CTMC
		c.Measures = []string{measure}
		return &c
	}
	pair := func(down float64) *CTMCSpec {
		return &CTMCSpec{Transitions: []CTMCTransition{{From: "up", To: "down", Rate: down}, {From: "down", To: "up", Rate: 1}},
			UpStates: []string{"up"}, Measures: []string{"availability"}}
	}
	cases := []struct {
		name string
		ctmc *CTMCSpec
	}{
		{"repairfarm-sor", swept("repairfarm.json", "availability")},
		{"pair-gth", pair(0.01)},
		{"stiff-chain", swept("stiff.json", "availability")},
		{"lumpable", swept("lumpable.json", "availability")},
		{"absorbing-mtta", swept("absorbing.json", "mtta")},
		{"zero-base-rate", pair(0)},
	}
	const (
		good = iota
		nanRate
		canceled
		oneSweep
		kinds
	)
	const samples, perKind = 60, 60 / kinds
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := CompileCTMC(&Spec{Type: "ctmc", Name: tc.name, CTMC: tc.ctmc})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(20160628 + ci)))
			base, ev := p.Rates(), p.Evaluator()
			maxIter := tc.ctmc.SolverMaxIter
			failed := make(map[int]int)
			for i := 0; i < samples; i++ {
				kind := i % kinds
				rates := make([]float64, len(base))
				for k, r := range base {
					if !(r > 0) {
						r = 1
					}
					rates[k] = r * math.Exp(0.3*rng.NormFloat64())
				}
				opts := func() SolveOptions { return SolveOptions{} }
				switch kind {
				case nanRate:
					rates[rng.Intn(len(rates))] = math.NaN()
				case canceled:
					opts = func() SolveOptions {
						return SolveOptions{Context: &cancelOnCall{Context: context.Background(), n: 5}}
					}
				case oneSweep:
					tc.ctmc.SolverMaxIter = 1
				}
				got, gotErr := ev.Solve(rates, opts())
				want, wantErr := p.Evaluator().Solve(rates, opts())
				tc.ctmc.SolverMaxIter = maxIter
				if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
					t.Fatalf("sample %d (kind %d): error %v, fresh evaluator %v", i, kind, gotErr, wantErr)
				}
				if d := sameResults(got, nil, want, nil); d != "" {
					t.Fatalf("sample %d (kind %d): %s", i, kind, d)
				}
				if gotErr != nil {
					failed[kind]++
				}
			}
			if failed[good] != 0 || failed[nanRate] != perKind {
				t.Fatalf("failures by kind %v: want none of the plain samples and every NaN one", failed)
			}
			if tc.name == "repairfarm-sor" && (failed[canceled] != perKind || failed[oneSweep] != perKind) {
				t.Fatalf("failures by kind %v: SOR must fail every canceled and one-sweep sample", failed)
			}
		})
	}
}
