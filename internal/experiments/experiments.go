// Package experiments defines the reproduction experiments E1–E16 indexed
// in DESIGN.md and EXPERIMENTS.md. Each experiment regenerates one table
// (or one figure's data series) demonstrating a claim from the tutorial:
// scalability of non-state-space methods, state-space explosion, bounding,
// the cost of the independence assumption, hierarchical fixed-point
// composition, transient analysis, phase-type expansion, parametric
// uncertainty, SPN generation, rejuvenation MRGPs, and network factoring.
// E13–E16 extend the tutorial: exact lumping, the automatic lumping
// pre-pass, sharded uncertainty sweeps on the job engine, and the serve
// process's fitted self-model.
//
// The same functions back cmd/experiments and the root-level benchmarks, so
// tables in documentation and numbers in benchmark runs cannot drift apart.
package experiments

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
)

// Registry returns all experiments in order.
func Registry() (*core.Registry, error) {
	return core.NewRegistry(
		core.Experiment{ID: "E1", Title: "RBD scaling: non-state-space methods handle hundreds of components", Run: E1RBDScaling},
		core.Experiment{ID: "E2", Title: "Fault trees: BDD vs MOCUS on repeated-event trees", Run: E2FaultTree},
		core.Experiment{ID: "E3", Title: "State-space explosion: shared-repair CTMC grows as 2^n", Run: E3StateSpace},
		core.Experiment{ID: "E4", Title: "Bounding: truncated cut-set bounds bracket and tighten (Boeing-style)", Run: E4Bounds},
		core.Experiment{ID: "E5", Title: "Independence violation: RBD optimistic vs shared-repair CTMC", Run: E5SharedRepair},
		core.Experiment{ID: "E6", Title: "Hierarchical fixed-point vs monolithic state space", Run: E6FixedPoint},
		core.Experiment{ID: "E7", Title: "Transient availability: uniformization vs simulation", Run: E7Transient},
		core.Experiment{ID: "E8", Title: "Non-exponential lifetimes via phase-type expansion", Run: E8PhaseType},
		core.Experiment{ID: "E9", Title: "Parametric uncertainty propagation", Run: E9Uncertainty},
		core.Experiment{ID: "E10", Title: "GSPN generation matches hand-built CTMC", Run: E10SPN},
		core.Experiment{ID: "E11", Title: "Software rejuvenation: MRGP downtime vs rejuvenation interval", Run: E11Rejuvenation},
		core.Experiment{ID: "E12", Title: "Reliability graphs: factoring vs BDD vs rare-event approximation", Run: E12RelGraph},
		core.Experiment{ID: "E13", Title: "Largeness avoidance: exact lumping of identical components (extension)", Run: E13Lumping},
		core.Experiment{ID: "E14", Title: "Automatic lumping pre-pass: discovered reduction makes the cubic MTTA solve cheap (extension)", Run: E14AutoLump},
		core.Experiment{ID: "E15", Title: "Async job engine: sharded uncertainty sweep matches the exact solve in O(1) memory (extension)", Run: E15JobSweep},
		core.Experiment{ID: "E16", Title: "Self-model fidelity: sampled availability CTMC of the server matches ground truth (extension)", Run: E16SelfModel},
	)
}

// --- small formatting helpers shared by the experiment files ---

func f64(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

func f64p(v float64, prec int) string { return strconv.FormatFloat(v, 'f', prec, 64) }

func itoa(i int) string { return strconv.Itoa(i) }

func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000)
}

// timed runs fn and returns its duration.
func timed(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}
