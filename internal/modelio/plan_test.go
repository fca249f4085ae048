package modelio

import (
	"context"
	"errors"
	"math"
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
			got, err := p.Solve(p.Rates(), SolveOptions{})
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
	if _, err := p.Solve(p.Rates(), SolveOptions{}); err == nil || err.Error() != want.Error() {
		t.Fatalf("solve at own rates: %v, want %v", err, want)
	}
	if _, err := p.Solve([]float64{-1, 1}, SolveOptions{}); !errors.Is(err, markov.ErrBadRate) {
		t.Fatalf("solve at a negative rate: %v, want ErrBadRate", err)
	}
	res, err := p.Solve([]float64{1, 3}, SolveOptions{})
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

// TestCTMCPlanSolveAllocs pins the allocations of one rated solve of a
// compiled plan: models/repairfarm.json's availability, as a sweep job
// solves it per sample. The plan finds the chain's closed classes, which
// its explicit "sor" checks, once and not per solve.
func TestCTMCPlanSolveAllocs(t *testing.T) {
	spec := ctmcFixtures(t)["repairfarm.json"]
	ctmc := *spec.CTMC
	ctmc.Measures = []string{"availability"}
	p, err := CompileCTMC(&Spec{Type: "ctmc", Name: spec.Name, CTMC: &ctmc})
	if err != nil {
		t.Fatal(err)
	}
	rates := p.Rates()
	opts := SolveOptions{Context: context.Background()}
	got := testing.AllocsPerRun(100, func() {
		if _, err := p.Solve(rates, opts); err != nil {
			t.Fatal(err)
		}
	})
	if got != 9 {
		t.Errorf("%v allocations per rated solve, want 9", got)
	}
}

// TestCTMCPlanConcurrentSolve evaluates one plan from several goroutines
// at once; each must get the answer a lone evaluation gets. Run it under
// -race: the plan is shared and must never be written after compile.
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
				if want[w*evals+i], err = p.Solve(rates(w, i), SolveOptions{}); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < evals; i++ {
					got, err := p.Solve(rates(w, i), SolveOptions{})
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
