package faulttree

import (
	"fmt"
	"sort"
)

// ImportanceMeasures holds the standard basic-event importance measures.
type ImportanceMeasures struct {
	Event         string
	Birnbaum      float64 // ∂P(top)/∂P(event)
	Criticality   float64 // Birnbaum·p/P(top)
	FussellVesely float64 // P(∪ cuts containing event)/P(top), rare-event approx
}

// Importance computes importance measures for every basic event using the
// static event probabilities.
func (t *Tree) Importance() ([]ImportanceMeasures, error) {
	if t.mgr == nil {
		return nil, ErrNoBDD
	}
	p := make([]float64, len(t.events))
	for i, e := range t.events {
		p[i] = e.Prob
	}
	topP, err := t.mgr.Prob(t.top, p)
	if err != nil {
		return nil, err
	}
	// Fussell–Vesely via cut sets (rare-event numerator).
	cuts := t.mgr.MinimalCutSets(t.top)
	fvNum := make([]float64, len(t.events))
	for _, c := range cuts {
		prod := 1.0
		for _, v := range c {
			prod *= p[v]
		}
		for _, v := range c {
			fvNum[v] += prod
		}
	}
	out := make([]ImportanceMeasures, len(t.events))
	for i, e := range t.events {
		b, err := t.mgr.Birnbaum(t.top, p, i)
		if err != nil {
			return nil, err
		}
		im := ImportanceMeasures{Event: e.Name, Birnbaum: b}
		if topP > 0 {
			im.Criticality = b * p[i] / topP
			fv := fvNum[i] / topP
			if fv > 1 {
				fv = 1
			}
			im.FussellVesely = fv
		}
		out[i] = im
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Birnbaum > out[b].Birnbaum })
	return out, nil
}

// RareEventBound returns the rare-event (first Boole–Bonferroni) upper
// bound on the top-event probability: the sum over minimal cut sets of
// their product probabilities. It requires a coherent tree.
func (t *Tree) RareEventBound() (float64, error) {
	if !t.coherent {
		return 0, ErrNonCoherent
	}
	if t.mgr == nil {
		return 0, ErrNoBDD
	}
	p := make([]float64, len(t.events))
	for i, e := range t.events {
		p[i] = e.Prob
	}
	var sum float64
	for _, c := range t.mgr.MinimalCutSets(t.top) {
		prod := 1.0
		for _, v := range c {
			prod *= p[v]
		}
		sum += prod
	}
	if sum > 1 {
		sum = 1
	}
	return sum, nil
}

// InclusionExclusion evaluates the top-event probability by
// inclusion–exclusion over the minimal cut sets, truncated after maxOrder
// terms (0 means full expansion). Odd truncation orders give upper bounds,
// even orders lower bounds (Bonferroni). It requires a coherent tree and is
// exponential in the number of cut sets — it exists as an oracle and as the
// basis of the bounding experiments, not as the production solver.
func (t *Tree) InclusionExclusion(maxOrder int) (float64, error) {
	if !t.coherent {
		return 0, ErrNonCoherent
	}
	if t.mgr == nil {
		return 0, ErrNoBDD
	}
	p := make([]float64, len(t.events))
	for i, e := range t.events {
		p[i] = e.Prob
	}
	cuts := t.mgr.MinimalCutSets(t.top)
	n := len(cuts)
	if n > 25 {
		return 0, fmt.Errorf("faulttree: %d cut sets too many for inclusion-exclusion", n)
	}
	if maxOrder <= 0 || maxOrder > n {
		maxOrder = n
	}
	var total float64
	// Iterate over union sizes.
	for order := 1; order <= maxOrder; order++ {
		sign := 1.0
		if order%2 == 0 {
			sign = -1
		}
		idx := make([]int, order)
		var rec func(start, depth int)
		var orderSum float64
		rec = func(start, depth int) {
			if depth == order {
				// The union's product runs in event order.
				union := make([]bool, len(p))
				for _, ci := range idx {
					for _, v := range cuts[ci] {
						union[v] = true
					}
				}
				prod := 1.0
				for v, in := range union {
					if in {
						prod *= p[v]
					}
				}
				orderSum += prod
				return
			}
			for j := start; j <= n-(order-depth); j++ {
				idx[depth] = j
				rec(j+1, depth+1)
			}
		}
		rec(0, 0)
		total += sign * orderSum
	}
	return total, nil
}
