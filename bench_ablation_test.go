package repro

// Ablation benchmarks for the design decisions DESIGN.md commits to:
//
//   - GTH (dense, exact) vs SOR (sparse, iterative) steady-state solvers —
//     locates the crossover behind markov's auto policy (GTH up to 256
//     states, SOR capped at GTH's predicted cost up to 600, SOR above);
//   - uniformization with vs without steady-state detection on stiff
//     horizons — justifies exposing the option;
//   - BDD variable ordering: interleaved vs blocked orderings of a
//     series-of-parallel structure — justifies compiling components in
//     structure order;
//   - MOCUS vs BDD minimal-cut extraction — justifies the BDD default.

import (
	"strconv"
	"testing"

	"repro/internal/bdd"
	"repro/internal/faulttree"
	"repro/internal/linalg"
	"repro/internal/markov"
)

// birthDeathDense returns a birth-death generator densely.
func birthDeathDense(n int) *linalg.Dense {
	q := linalg.NewDense(n, n)
	for i := 0; i < n-1; i++ {
		q.Set(i, i+1, 1)
		q.Set(i+1, i, 2)
	}
	return q
}

// birthDeathCSR returns the same generator sparsely, with diagonals.
func birthDeathCSR(n int) *linalg.CSR {
	b := linalg.NewBuilder(n, n)
	for i := 0; i < n-1; i++ {
		_ = b.Add(i, i+1, 1)
		_ = b.Add(i+1, i, 2)
	}
	for i := 0; i < n; i++ {
		var out float64
		if i < n-1 {
			out++
		}
		if i > 0 {
			out += 2
		}
		_ = b.Add(i, i, -out)
	}
	return b.Build()
}

// BenchmarkAblationGTHvsSOR sweeps the chain size across the solver
// crossover used by markov.SteadyState.
func BenchmarkAblationGTHvsSOR(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		dense := birthDeathDense(n)
		sparse := birthDeathCSR(n)
		b.Run("gth/n="+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := linalg.GTH(dense); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("sor/n="+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := linalg.SORSteadyState(sparse, linalg.SOROptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSteadyStateDetection compares uniformization with and
// without steady-state detection on a stiff long-horizon problem.
func BenchmarkAblationSteadyStateDetection(b *testing.B) {
	c := markov.NewCTMC()
	if err := c.AddRate("up", "down", 1e-4); err != nil {
		b.Fatal(err)
	}
	if err := c.AddRate("down", "up", 5); err != nil {
		b.Fatal(err)
	}
	p0, err := c.InitialAt("up")
	if err != nil {
		b.Fatal(err)
	}
	const horizon = 5000.0
	b.Run("detection=off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := c.Transient(horizon, p0, markov.TransientOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("detection=on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			opts := markov.TransientOptions{SteadyStateDetection: true}
			if _, err := c.Transient(horizon, p0, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationBDDOrdering compares the BDD size/time of a
// series-of-parallel-pairs structure under structure order (pair members
// adjacent) vs blocked order (all 'a' units, then all 'b' units).
func BenchmarkAblationBDDOrdering(b *testing.B) {
	// The blocked ordering grows the BDD as 2^pairs (vs 2·pairs for the
	// interleaved ordering), so it runs at a smaller size: 12 pairs is
	// already a 4096-node vs 24-node gap without making the suite crawl.
	build := func(pairs int, varOf func(pair, member int) int) (int, error) {
		m := bdd.New(2 * pairs)
		f := bdd.True
		for p := 0; p < pairs; p++ {
			va, err := m.Var(varOf(p, 0))
			if err != nil {
				return 0, err
			}
			vb, err := m.Var(varOf(p, 1))
			if err != nil {
				return 0, err
			}
			f = m.And(f, m.Or(va, vb))
		}
		return m.NodeCount(f), nil
	}
	b.Run("interleaved/pairs=12", func(b *testing.B) {
		var nodes int
		for i := 0; i < b.N; i++ {
			var err error
			nodes, err = build(12, func(pair, member int) int { return 2*pair + member })
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(nodes), "nodes")
	})
	b.Run("blocked/pairs=12", func(b *testing.B) {
		var nodes int
		for i := 0; i < b.N; i++ {
			var err error
			nodes, err = build(12, func(pair, member int) int { return pair + member*12 })
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(nodes), "nodes")
	})
}

// BenchmarkAblationMOCUSvsBDD compares cut-set extraction strategies on a
// growing OR-of-AND-pairs tree.
func BenchmarkAblationMOCUSvsBDD(b *testing.B) {
	build := func(pairs int) *faulttree.Tree {
		gates := make([]*faulttree.Node, pairs)
		for i := 0; i < pairs; i++ {
			a := &faulttree.Event{Name: "a" + strconv.Itoa(i), Prob: 1e-3}
			c := &faulttree.Event{Name: "b" + strconv.Itoa(i), Prob: 1e-3}
			gates[i] = faulttree.And(faulttree.Basic(a), faulttree.Basic(c))
		}
		tree, err := faulttree.New(faulttree.Or(gates...))
		if err != nil {
			b.Fatal(err)
		}
		return tree
	}
	for _, pairs := range []int{20, 80} {
		tree := build(pairs)
		b.Run("bdd/pairs="+strconv.Itoa(pairs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if cuts := tree.MinimalCutSets(); len(cuts) != pairs {
					b.Fatalf("cuts = %d", len(cuts))
				}
			}
		})
		b.Run("mocus/pairs="+strconv.Itoa(pairs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cuts, err := tree.MOCUS(0)
				if err != nil {
					b.Fatal(err)
				}
				if len(cuts) != pairs {
					b.Fatalf("cuts = %d", len(cuts))
				}
			}
		})
	}
}
