// Package bounds implements bounding algorithms for systems too large for
// exact solution — the tutorial's Boeing 787 story. All bounds operate on
// minimal cut sets (and optionally minimal path sets) over independent
// components:
//
//   - rare-event upper bound (first Bonferroni term),
//   - Esary–Proschan two-sided bounds,
//   - Bonferroni (truncated inclusion–exclusion) bounds of any order,
//   - probability-truncation bounds: solve the dominant cut sets exactly
//     (via BDD) and bound the discarded mass by its rare-event sum.
//
// The truncation scheme is the one that makes million-cut-set models
// tractable: the kept cuts give a certified lower bound, and adding the
// discarded cuts' total probability gives a certified upper bound.
package bounds

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/bdd"
	"repro/internal/guard"
)

// CutSystem is a coherent system described by its minimal cut sets over
// components indexed 0..NumComp-1, together with each component's failure
// probability.
type CutSystem struct {
	// Cuts lists the minimal cut sets (component indices).
	Cuts [][]int
	// FailP[i] is the failure probability of component i.
	FailP []float64
}

// Errors returned by bound computations.
var (
	ErrNoCuts  = errors.New("bounds: no cut sets")
	ErrBadProb = errors.New("bounds: probability outside [0,1]")
	ErrBadCut  = errors.New("bounds: cut references unknown component")
)

// Validate checks indices and probabilities.
func (cs *CutSystem) Validate() error {
	if len(cs.Cuts) == 0 {
		return ErrNoCuts
	}
	for i, p := range cs.FailP {
		if p < 0 || p > 1 {
			return fmt.Errorf("%w: component %d has p=%g", ErrBadProb, i, p)
		}
	}
	for ci, cut := range cs.Cuts {
		if len(cut) == 0 {
			return fmt.Errorf("%w: cut %d empty", ErrBadCut, ci)
		}
		for _, v := range cut {
			if v < 0 || v >= len(cs.FailP) {
				return fmt.Errorf("%w: cut %d references component %d of %d",
					ErrBadCut, ci, v, len(cs.FailP))
			}
		}
	}
	return nil
}

// cutProb returns the product probability of one cut.
func (cs *CutSystem) cutProb(cut []int) float64 {
	p := 1.0
	for _, v := range cut {
		p *= cs.FailP[v]
	}
	return p
}

// RareEvent returns the rare-event upper bound Σ_j P(cut_j), capped at 1.
func (cs *CutSystem) RareEvent() (float64, error) {
	if err := cs.Validate(); err != nil {
		return 0, err
	}
	var s float64
	for _, cut := range cs.Cuts {
		s += cs.cutProb(cut)
	}
	if s > 1 {
		s = 1
	}
	return s, nil
}

// RareEventLog returns the natural log of the rare-event upper bound,
// evaluated entirely in log space: cut products that underflow float64
// (e.g. 40 components at 1e-12 each) still contribute, where RareEvent
// would silently return 0 and certify nothing.
func (cs *CutSystem) RareEventLog() (float64, error) {
	if err := cs.Validate(); err != nil {
		return 0, err
	}
	logs := make([]float64, len(cs.Cuts))
	for i, cut := range cs.Cuts {
		ps := make([]float64, len(cut))
		for j, v := range cut {
			ps[j] = cs.FailP[v]
		}
		lc, err := guard.LogCutProb(ps)
		if err != nil {
			return 0, fmt.Errorf("%w: cut %d: %v", ErrBadProb, i, err)
		}
		logs[i] = lc
	}
	return guard.LogRareEvent(logs), nil
}

// EsaryProschanUpper returns the Esary–Proschan upper bound on system
// failure probability: 1 - Π_j (1 - P(cut_j)).
func (cs *CutSystem) EsaryProschanUpper() (float64, error) {
	if err := cs.Validate(); err != nil {
		return 0, err
	}
	prod := 1.0
	for _, cut := range cs.Cuts {
		prod *= 1 - cs.cutProb(cut)
	}
	return 1 - prod, nil
}

// EsaryProschanLower returns the Esary–Proschan lower bound on system
// failure probability computed from the minimal path sets:
// Q ≥ Π_i (1 - Π_{k∈path_i} (1 - FailP_k)).
func (cs *CutSystem) EsaryProschanLower(paths [][]int) (float64, error) {
	if err := cs.Validate(); err != nil {
		return 0, err
	}
	if len(paths) == 0 {
		return 0, fmt.Errorf("bounds: no path sets")
	}
	prod := 1.0
	for _, path := range paths {
		up := 1.0
		for _, v := range path {
			if v < 0 || v >= len(cs.FailP) {
				return 0, fmt.Errorf("%w: path references component %d", ErrBadCut, v)
			}
			up *= 1 - cs.FailP[v]
		}
		prod *= 1 - up
	}
	return prod, nil
}

// Bonferroni returns the order-k truncated inclusion–exclusion value. Odd k
// gives an upper bound on system failure probability, even k a lower bound.
// Complexity is C(len(Cuts), k); keep k small.
func (cs *CutSystem) Bonferroni(order int) (float64, error) {
	if err := cs.Validate(); err != nil {
		return 0, err
	}
	n := len(cs.Cuts)
	if order < 1 {
		return 0, fmt.Errorf("bounds: order %d must be >= 1", order)
	}
	if order > n {
		order = n
	}
	var total float64
	idx := make([]int, order)
	for ord := 1; ord <= order; ord++ {
		sign := 1.0
		if ord%2 == 0 {
			sign = -1
		}
		var sum float64
		var rec func(start, depth int)
		rec = func(start, depth int) {
			if depth == ord {
				// The union's product runs in component order.
				union := make([]bool, len(cs.FailP))
				for _, ci := range idx[:ord] {
					for _, v := range cs.Cuts[ci] {
						union[v] = true
					}
				}
				p := 1.0
				for v, in := range union {
					if in {
						p *= cs.FailP[v]
					}
				}
				sum += p
				return
			}
			for j := start; j <= n-(ord-depth); j++ {
				idx[depth] = j
				rec(j+1, depth+1)
			}
		}
		rec(0, 0)
		total += sign * sum
	}
	return total, nil
}

// Exact computes the exact union probability of the cut events via a BDD.
// Feasible whenever the BDD of the union stays manageable (it usually does
// for structured systems even with many cuts).
func (cs *CutSystem) Exact() (float64, error) {
	if err := cs.Validate(); err != nil {
		return 0, err
	}
	mgr := bdd.New(len(cs.FailP))
	f := bdd.False
	for _, cut := range cs.Cuts {
		term := bdd.True
		for _, v := range cut {
			x, err := mgr.Var(v)
			if err != nil {
				return 0, err
			}
			term = mgr.And(term, x)
		}
		f = mgr.Or(f, term)
	}
	return mgr.Prob(f, cs.FailP)
}

// TruncationResult reports a two-sided bound obtained by keeping only the
// most probable cut sets.
type TruncationResult struct {
	// Lower is the exact probability of the union of kept cuts (a certified
	// lower bound on the full union).
	Lower float64
	// Upper is Lower plus the rare-event sum of the discarded cuts (a
	// certified upper bound).
	Upper float64
	// Kept and Discarded count the cut sets in each class.
	Kept, Discarded int
	// DiscardedMass is the rare-event sum of the discarded cuts.
	DiscardedMass float64
}

// Width returns Upper - Lower.
func (r TruncationResult) Width() float64 { return r.Upper - r.Lower }

// TruncatedBounds sorts cuts by probability, keeps the most probable
// `keep` of them (all if keep <= 0 or beyond range), solves the kept union
// exactly via BDD, and bounds the discarded mass by its rare-event sum.
func (cs *CutSystem) TruncatedBounds(keep int) (TruncationResult, error) {
	if err := cs.Validate(); err != nil {
		return TruncationResult{}, err
	}
	type scored struct {
		cut []int
		p   float64
	}
	all := make([]scored, len(cs.Cuts))
	for i, cut := range cs.Cuts {
		all[i] = scored{cut: cut, p: cs.cutProb(cut)}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].p > all[j].p })
	if keep <= 0 || keep > len(all) {
		keep = len(all)
	}
	keptCuts := make([][]int, keep)
	for i := 0; i < keep; i++ {
		keptCuts[i] = all[i].cut
	}
	var discardedMass float64
	for i := keep; i < len(all); i++ {
		discardedMass += all[i].p
	}
	keptSys := &CutSystem{Cuts: keptCuts, FailP: cs.FailP}
	lower, err := keptSys.Exact()
	if err != nil {
		return TruncationResult{}, err
	}
	upper := lower + discardedMass
	if upper > 1 {
		upper = 1
	}
	return TruncationResult{
		Lower:         lower,
		Upper:         upper,
		Kept:          keep,
		Discarded:     len(all) - keep,
		DiscardedMass: discardedMass,
	}, nil
}
