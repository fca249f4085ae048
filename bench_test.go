// Package repro's root-level benchmarks regenerate every experiment table
// (E1–E16) indexed in EXPERIMENTS.md, one benchmark per table/figure, plus
// micro-benchmarks of the core solver kernels. Run with:
//
//	go test -bench=. -benchmem
//
// Each experiment benchmark executes the full table regeneration per
// iteration, so ns/op is the cost of reproducing that table.
package repro

import (
	"strconv"
	"testing"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/linalg"
	"repro/internal/markov"
	"repro/internal/obs"
	"repro/internal/spn"
)

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	reg, err := experiments.Registry()
	if err != nil {
		b.Fatal(err)
	}
	exp, err := reg.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var tbl *core.Table
	for i := 0; i < b.N; i++ {
		tbl, err = exp.Run(obs.Nop())
		if err != nil {
			b.Fatal(err)
		}
	}
	if tbl == nil || len(tbl.Rows) == 0 {
		b.Fatal("experiment produced no rows")
	}
}

func BenchmarkE1RBDScaling(b *testing.B)    { benchExperiment(b, "E1") }
func BenchmarkE2FaultTree(b *testing.B)     { benchExperiment(b, "E2") }
func BenchmarkE3StateSpace(b *testing.B)    { benchExperiment(b, "E3") }
func BenchmarkE4Bounds(b *testing.B)        { benchExperiment(b, "E4") }
func BenchmarkE5SharedRepair(b *testing.B)  { benchExperiment(b, "E5") }
func BenchmarkE6FixedPoint(b *testing.B)    { benchExperiment(b, "E6") }
func BenchmarkE7Transient(b *testing.B)     { benchExperiment(b, "E7") }
func BenchmarkE8PhaseType(b *testing.B)     { benchExperiment(b, "E8") }
func BenchmarkE9Uncertainty(b *testing.B)   { benchExperiment(b, "E9") }
func BenchmarkE10SPN(b *testing.B)          { benchExperiment(b, "E10") }
func BenchmarkE11Rejuvenation(b *testing.B) { benchExperiment(b, "E11") }
func BenchmarkE12RelGraph(b *testing.B)     { benchExperiment(b, "E12") }
func BenchmarkE13Lumping(b *testing.B)      { benchExperiment(b, "E13") }
func BenchmarkE14AutoLump(b *testing.B)     { benchExperiment(b, "E14") }
func BenchmarkE15JobSweep(b *testing.B)     { benchExperiment(b, "E15") }
func BenchmarkE16SelfModel(b *testing.B)    { benchExperiment(b, "E16") }

// --- solver-kernel micro-benchmarks -----------------------------------

// BenchmarkGTH measures dense GTH steady-state solution across chain
// sizes. The birth-death chains have one nonzero above the diagonal per
// column, so the reduction's inner axpy barely runs; the 512-state
// repair farm of nine heterogeneous machines (the size relperf's
// serve-large steady-state document solves) fills in and exercises it.
func BenchmarkGTH(b *testing.B) {
	run := func(name string, q *linalg.Dense) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := linalg.GTH(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, n := range []int{16, 64, 256} {
		q := linalg.NewDense(n, n)
		for i := 0; i < n-1; i++ {
			q.Set(i, i+1, 1)
			q.Set(i+1, i, 2)
		}
		run("n="+strconv.Itoa(n), q)
	}
	const machines = 9
	q := linalg.NewDense(1<<machines, 1<<machines)
	for s := 0; s < 1<<machines; s++ {
		for i := 0; i < machines; i++ {
			// Machine i fails at 0.02–0.08 and is repaired at 0.5–1.5,
			// no two machines alike.
			rate := 0.02 + 0.06*float64((i*5)%machines)/machines
			if s>>i&1 == 1 {
				rate = 0.5 + float64((i*7)%machines)/machines
			}
			q.Set(s, s^1<<i, rate)
		}
	}
	run("farm/n=512", q)
}

// BenchmarkSOR measures sparse SOR steady-state solution on birth-death
// chains.
func BenchmarkSOR(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			asm := linalg.NewBuilder(n, n)
			for i := 0; i < n-1; i++ {
				_ = asm.Add(i, i+1, 1)
				_ = asm.Add(i, i, -1)
				_ = asm.Add(i+1, i, 2)
			}
			for i := 1; i < n; i++ {
				_ = asm.Add(i, i, -2)
			}
			m := asm.Build()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := linalg.SORSteadyState(m, linalg.SOROptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUniformization measures the transient solver on a stiff chain.
func BenchmarkUniformization(b *testing.B) {
	c := markov.NewCTMC()
	if err := c.AddRate("up", "down", 1e-3); err != nil {
		b.Fatal(err)
	}
	if err := c.AddRate("down", "up", 10); err != nil {
		b.Fatal(err)
	}
	p0, err := c.InitialAt("up")
	if err != nil {
		b.Fatal(err)
	}
	for _, t := range []float64{10, 1000} {
		b.Run("t="+strconv.FormatFloat(t, 'g', -1, 64), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.Transient(t, p0, markov.TransientOptions{SteadyStateDetection: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBDDKofN measures voting-function construction and probability
// evaluation.
func BenchmarkBDDKofN(b *testing.B) {
	for _, n := range []int{20, 60, 120} {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := bdd.New(n)
				vars := make([]bdd.Ref, n)
				for j := range vars {
					v, err := m.Var(j)
					if err != nil {
						b.Fatal(err)
					}
					vars[j] = v
				}
				f, err := m.KofN(n/2, vars)
				if err != nil {
					b.Fatal(err)
				}
				p := make([]float64, n)
				for j := range p {
					p[j] = 0.9
				}
				if _, err := m.Prob(f, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSPNGeneration measures reachability-graph generation for an
// M/M/1/K net across buffer sizes.
func BenchmarkSPNGeneration(b *testing.B) {
	for _, k := range []int{32, 256, 1024} {
		b.Run("K="+strconv.Itoa(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n := spn.New()
				if err := n.Place("queue", 0); err != nil {
					b.Fatal(err)
				}
				if err := n.Place("slots", k); err != nil {
					b.Fatal(err)
				}
				steps := []error{
					n.Timed("arrive", 1),
					n.Timed("serve", 2),
					n.Input("slots", "arrive", 1),
					n.Output("arrive", "queue", 1),
					n.Input("queue", "serve", 1),
					n.Output("serve", "slots", 1),
				}
				for _, err := range steps {
					if err != nil {
						b.Fatal(err)
					}
				}
				if _, err := n.Generate(0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
