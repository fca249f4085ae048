package modelio

import (
	"repro/internal/markov"
	"repro/internal/obs"
	"repro/internal/relstruct"
)

// This file implements the automatic lumping pre-pass: before solving a
// CTMC whose measures only distinguish whole state sets (availability
// over the up set, MTTA into the absorbing set), the chain is checked for
// an exactly-lumpable partition seeded by those sets and, when one
// exists, solved in aggregated form. Ordinary lumpability makes the
// block-level process Markov for every initial distribution, so both
// measures are exact on the lumped chain; the reduction is pure speedup.

// lumpEligible reports whether the pre-pass may run for this spec: not
// opted out, and every requested measure is a set-level measure the
// lumping preserves (per-state detail measures like "steadystate" and
// "transient" need the original state space).
func lumpEligible(spec *CTMCSpec) bool {
	switch spec.Lump {
	case "", "auto":
	default:
		return false
	}
	if len(spec.Measures) == 0 {
		return false
	}
	for _, m := range spec.Measures {
		if m != "availability" && m != "mtta" {
			return false
		}
	}
	return true
}

// structInput builds the relstruct input for a ctmc spec at the given
// rates (nil: the spec's own), seeded so any refinement keeps the up and
// absorbing sets (the sets the measures distinguish) in separate blocks.
// Transitions with empty endpoints are skipped — the basic lint checks
// reject them before anything solves.
func structInput(spec *CTMCSpec, rates []float64) relstruct.Input {
	nts := make([]relstruct.NamedTransition, 0, len(spec.Transitions))
	for k, tr := range spec.Transitions {
		if tr.From == "" || tr.To == "" {
			continue
		}
		w := tr.Rate
		if rates != nil {
			w = rates[k]
		}
		nts = append(nts, relstruct.NamedTransition{From: tr.From, To: tr.To, Weight: w})
	}
	in := relstruct.FromNamed(nts, false)
	if in.States > 0 {
		in.Seed = relstruct.SeedSets(in.Names, spec.UpStates, spec.Absorbing)
	}
	return in
}

// StructReport computes the static structural analysis of a parsed ctmc
// spec: SCC condensation, stiffness, the coarsest measure-preserving
// lumpable partition, and the distilled solver hint. lint.CheckCTMC
// returns the same report, read by its CT and STR checks; StructReport
// computes it alone.
func StructReport(spec *CTMCSpec) (*relstruct.StructReport, error) {
	if spec == nil {
		return nil, relstruct.ErrEmpty
	}
	return relstruct.Analyze(structInput(spec, nil))
}

// autoLump analyzes the chain c, the spec's at the given rates (nil: the
// spec's own), and, when it is exactly lumpable under a partition
// separating the up and absorbing sets, returns the aggregated chain and
// the state→block-representative mapping. A nil chain means "no
// reduction" (not lumpable, analysis failed, or markov.Lump vetoed the
// partition) and the caller solves the original. An applied lump is
// announced on a "relstruct.lump" span whose lump_ratio attribute feeds
// the relscope lump metrics (obs.SolveMetrics).
func autoLump(c *markov.CTMC, spec *CTMCSpec, rates []float64, rec obs.Recorder) (*markov.CTMC, map[string]string) {
	in := structInput(spec, rates)
	if in.States == 0 {
		return nil, nil
	}
	rep, err := relstruct.Analyze(in)
	if err != nil || !rep.Lumping.Lumpable {
		return nil, nil
	}
	names := rep.StateNames()
	blockOf := rep.Lumping.BlockOf()
	// Each block is represented by its smallest-index member's name.
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
		// The refinement and markov.Lump agree on the lumpability
		// condition, but stay safe: a veto just skips the reduction.
		return nil, nil
	}
	if rec.Enabled() {
		sp := rec.Span("relstruct.lump",
			obs.I("lump_states", rep.States),
			obs.I("lump_blocks", rep.Lumping.Blocks),
			obs.F("lump_ratio", rep.Lumping.Ratio))
		sp.End()
	}
	return lumped, toBlock
}

// mapToBlocks rewrites a state set through the lump mapping, deduplicating
// states that landed in the same block while keeping first-appearance
// order.
func mapToBlocks(states []string, toBlock map[string]string) []string {
	seen := make(map[string]bool, len(states))
	out := make([]string, 0, len(states))
	for _, s := range states {
		b, ok := toBlock[s]
		if !ok {
			b = s
		}
		if !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	return out
}
