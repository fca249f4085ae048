package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/modelio"
)

// farmDoc builds the m-machine heterogeneous repair farm the modelio
// decoder tests use: 2^m states, m transitions out of each, one failure
// and one repair rate per machine, and the states with at most a quarter
// of the machines down counted as up.
func farmDoc(tb testing.TB, m int) []byte {
	tb.Helper()
	return farmDocFor(tb, m, "availability")
}

// farmDocFor is farmDoc with one measure: availability, steadystate, or
// transient at t = 10 from the all-up state. Machine i fails at
// 0.02·(1 + i/7) and is repaired at 0.5·(1 + i/3), so distinct states can
// share an exit rate.
func farmDocFor(tb testing.TB, m int, measure string) []byte {
	tb.Helper()
	lam, mu := make([]float64, m), make([]float64, m)
	for i := range lam {
		lam[i] = 0.02 * (1 + float64(i)/7)
		mu[i] = 0.5 * (1 + float64(i)/3)
	}
	return farmDocRates(tb, measure, lam, mu)
}

// randomFarmDoc is farmDocFor with seeded random rates, drawn as relperf
// draws its serve-large farms': failure from [0.02, 0.08) and repair from
// [0.5, 1.5) per machine. No two states then share an exit rate.
func randomFarmDoc(tb testing.TB, m int, measure string, seed int64) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	lam, mu := make([]float64, m), make([]float64, m)
	for i := range lam {
		lam[i] = 0.02 + 0.06*rng.Float64()
		mu[i] = 0.5 + rng.Float64()
	}
	return farmDocRates(tb, measure, lam, mu)
}

// farmDocRates renders the farm whose machine i fails at lam[i] and is
// repaired at mu[i].
func farmDocRates(tb testing.TB, measure string, lam, mu []float64) []byte {
	tb.Helper()
	m := len(lam)
	state := func(s int) string {
		b := make([]byte, m)
		for i := range b {
			b[i] = '0' + byte(s>>i&1)
		}
		return string(b)
	}
	c := &modelio.CTMCSpec{Measures: []string{measure}}
	if measure == "transient" {
		c.Initial, c.Time = state(0), 10
	}
	for s := 0; s < 1<<m; s++ {
		if measure == "availability" && 4*strings.Count(state(s), "1") <= m {
			c.UpStates = append(c.UpStates, state(s))
		}
		for i := 0; i < m; i++ {
			rate := lam[i] // failure
			if s>>i&1 == 1 {
				rate = mu[i] // repair
			}
			c.Transitions = append(c.Transitions, modelio.CTMCTransition{From: state(s), To: state(s ^ 1<<i), Rate: rate})
		}
	}
	doc, err := json.Marshal(&modelio.Spec{Type: "ctmc", Name: fmt.Sprintf("farm%d", m), CTMC: c})
	if err != nil {
		tb.Fatal(err)
	}
	return doc
}

// TestAnalyzeDocumentAllocs guards that lint and analyze share one
// structural analysis of a chain. On the 11-machine farm (2,048 states,
// 22,528 transitions), linting the chain with its own map adjacency and
// Tarjan, analysing it again for the STR codes and a third time for the
// report cost 103,120 allocations; one pass over the transitions plus one
// relstruct.Analyze cost 25,043. The bound is a third of the former, so
// a second analysis (~22,800 allocations) fails it.
func TestAnalyzeDocumentAllocs(t *testing.T) {
	doc := farmDoc(t, 11)
	var rep analyzeFileReport
	allocs := testing.AllocsPerRun(3, func() {
		rep, _ = analyzeDocument("farm", bytes.NewReader(doc))
	})
	if rep.Report == nil || rep.Report.States != 2048 || rep.Report.Transitions != 22528 {
		t.Fatalf("farm analysed wrong: skipped %q, report %+v", rep.Skipped, rep.Report)
	}
	t.Logf("analyzeDocument on the farm: %.0f allocations", allocs)
	const parent = 103120
	if allocs > parent/3 {
		t.Errorf("analyzeDocument made %.0f allocations on the farm, want at most %d (a third of %d)", allocs, parent/3, parent)
	}
}

func BenchmarkAnalyzeDocument(b *testing.B) {
	for _, m := range []int{9, 11} {
		doc := farmDoc(b, m)
		b.Run(fmt.Sprintf("farm/n=%d", 1<<m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if rep, _ := analyzeDocument("farm", bytes.NewReader(doc)); rep.Report == nil {
					b.Fatalf("farm not analysed: %s", rep.Skipped)
				}
			}
		})
	}
}
