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

// ctmcIndex numbers a ctmc document's states once, in order of first
// appearance over its transitions: state i is names[i], index maps each
// name back, and the k-th transition runs from state from[k] to state
// to[k]. A compiled chain takes these arrays (markov.NewCTMCFrom), and
// the structural analysis reads them as they are.
type ctmcIndex struct {
	names    []string
	index    map[string]int
	from, to []int
}

func indexCTMC(spec *CTMCSpec) ctmcIndex {
	x := ctmcIndex{
		index: make(map[string]int),
		from:  make([]int, len(spec.Transitions)),
		to:    make([]int, len(spec.Transitions)),
	}
	id := func(name string) int {
		i, ok := x.index[name]
		if !ok {
			i = len(x.names)
			x.index[name] = i
			x.names = append(x.names, name)
		}
		return i
	}
	for k, tr := range spec.Transitions {
		x.from[k] = id(tr.From)
		x.to[k] = id(tr.To)
	}
	return x
}

// analysis returns the relstruct input for the indexed chain with the
// given weights, one per transition, seeded so any refinement keeps the
// up and absorbing sets (the sets the measures distinguish) in separate
// blocks. A transition with an empty endpoint is left out: the basic
// lint checks reject it before anything solves. Only then are the
// arrays copied, by dropState.
func (x *ctmcIndex) analysis(spec *CTMCSpec, weights []float64) relstruct.Input {
	in := relstruct.Input{States: len(x.names), Names: x.names, From: x.from, To: x.to, Weight: weights}
	if empty, ok := x.index[""]; ok {
		in = dropState(in, empty)
	}
	if in.States > 0 {
		in.Seed = relstruct.SeedSets(in.Names, spec.UpStates, spec.Absorbing)
	}
	return in
}

// dropState returns in without the transitions that touch state s. The
// states left are renumbered in order of first appearance over the
// transitions kept, so a state that only s touches drops out too.
func dropState(in relstruct.Input, s int) relstruct.Input {
	renum := make([]int, in.States)
	for i := range renum {
		renum[i] = -1
	}
	var out relstruct.Input
	id := func(i int) int {
		if renum[i] < 0 {
			renum[i] = len(out.Names)
			out.Names = append(out.Names, in.Names[i])
		}
		return renum[i]
	}
	for k, f := range in.From {
		t := in.To[k]
		if f == s || t == s {
			continue
		}
		out.From = append(out.From, id(f))
		out.To = append(out.To, id(t))
		out.Weight = append(out.Weight, in.Weight[k])
	}
	out.States = len(out.Names)
	return out
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
	x := indexCTMC(spec)
	weights := make([]float64, len(spec.Transitions))
	for k, tr := range spec.Transitions {
		weights[k] = tr.Rate
	}
	return relstruct.Analyze(x.analysis(spec, weights))
}

// autoLump computes the lumping partition of the chain c, the plan's at
// the given rates, one per transition (relstruct.AnalyzeLumping: the
// partition alone, none of the rest of the structural report), and,
// when it is exactly lumpable under a partition separating the up and
// absorbing sets, returns the aggregated chain and the
// state→block-representative mapping. A nil chain means "no
// reduction" (not lumpable, analysis failed, or markov.Lump vetoed the
// partition) and the caller solves the original. An applied lump is
// announced on a "relstruct.lump" span whose lump_ratio attribute feeds
// the relscope lump metrics (obs.SolveMetrics).
func (p *CTMCPlan) autoLump(c *markov.CTMC, rates []float64, rec obs.Recorder) (*markov.CTMC, map[string]string) {
	in := p.idx.analysis(p.spec, rates)
	if in.States == 0 {
		return nil, nil
	}
	lump, err := relstruct.AnalyzeLumping(in)
	if err != nil || !lump.Lumpable {
		return nil, nil
	}
	names := in.Names
	blockOf := lump.BlockOf()
	// Each block is represented by its smallest-index member's name.
	repName := make([]string, lump.Blocks)
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
			obs.I("lump_states", in.States),
			obs.I("lump_blocks", lump.Blocks),
			obs.F("lump_ratio", lump.Ratio))
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
