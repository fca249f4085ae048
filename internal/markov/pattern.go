package markov

import (
	"fmt"
	"slices"

	"repro/internal/linalg"
)

// Pattern is the sparsity structure of a chain's generator together
// with the value slot that each transition and each diagonal of the
// chain writes. A chain rated on it (see Rated) writes its generator into
// the pattern instead of laying it out again, which is what lets a
// parameter sweep build the structure once. A Pattern is never modified
// after NewPattern returns it, so concurrent callers may share it.
type Pattern struct {
	// c is the chain the pattern was laid out for.
	c *CTMC
	q *linalg.CSR // its values are never read
	// slots holds the value slot of each transition, in AddRate order,
	// followed by the slot of each state's diagonal (-1 for a state
	// without outflow).
	slots []int
}

// layout lays out c's generator from its transition index arrays (see
// linalg.Assemble): a counting sort, no triplets and no sort call.
func layout(c *CTMC) (Pattern, error) {
	n := len(c.names)
	if n == 0 {
		return Pattern{}, ErrEmptyChain
	}
	q, slots, err := linalg.Assemble(n, n, c.from, c.to, true)
	return Pattern{c: c, q: q, slots: slots}, err
}

// NewPattern lays out c's generator and records where each of c's
// transitions and diagonals lands in it. The pattern keeps its transpose
// as well, so SOR on a generator filled into it places values instead of
// transposing the pattern again. Since the pattern fixes c's structure,
// c keeps its closed classes from the first solve that finds them on,
// for itself and for every chain rated on the pattern. Add no states or
// transitions to c afterwards.
func NewPattern(c *CTMC) (*Pattern, error) {
	p, err := layout(c)
	if err != nil {
		return nil, err
	}
	p.q = p.q.WithTranspose()
	c.classes = new(closedClassCache)
	return &p, nil
}

// fill writes the generator of c, the pattern's chain or one rated on
// it, into vals, one value per pattern entry. Each entry and each
// diagonal is summed in transition order, as Generator sums it.
func (p *Pattern) fill(c *CTMC, vals []float64) {
	clear(vals)
	nt := len(c.from)
	diag := p.slots[nt:]
	for k, f := range c.from {
		r := c.rate[k]
		vals[p.slots[k]] += r
		vals[diag[f]] += r
	}
	for _, d := range diag {
		if d >= 0 {
			vals[d] = -vals[d]
		}
	}
}

// Rated is a chain over the states and transitions of a pattern's chain
// whose rates are rewritten in place, one rate vector at a time (see
// SetRates). It owns the buffers a steady-state solve needs, its
// generator's values on the pattern and an SOR workspace, so solving the
// structure at rate after rate by SOR allocates nothing. It shares its
// state table, index arrays and closed classes with the pattern's chain.
// A Rated is not safe for concurrent use: each goroutine makes its own.
type Rated struct {
	chain   CTMC
	pattern *Pattern
	// q is the pattern with values vals, which each steady-state solve
	// rewrites in place; no one else holds q.
	q    *linalg.CSR
	vals []float64
	sor  linalg.SORWork
}

// Rated returns a chain rated on the pattern, at the rates of the
// pattern's chain until SetRates writes others.
func (p *Pattern) Rated() *Rated {
	c := p.c
	n := len(c.from)
	vals := make([]float64, p.q.NNZ())
	// WithValues fails only on a value count other than the pattern's.
	q, _ := p.q.WithValues(vals)
	return &Rated{
		chain: CTMC{names: c.names, index: c.index, classes: c.classes,
			edges: edges{from: c.from[:n:n], to: c.to[:n:n], rate: slices.Clone(c.rate)}},
		pattern: p,
		q:       q,
		vals:    vals,
	}
}

// Chain returns the chain at its current rates. Its steady state by
// SteadyState reuses the chain's buffers; every other analysis of it
// allocates as for any chain. It shares its state table with the
// pattern's chain and every other chain rated on the pattern, so add no
// states or transitions to it.
func (r *Rated) Chain() *CTMC { return &r.chain }

// SetRates writes rates into the chain, the k-th to its k-th transition
// in AddRate order, after checking each as AddRate checks it. On an
// error the chain keeps its rates.
func (r *Rated) SetRates(rates []float64) error {
	c := &r.chain
	if len(rates) != len(c.rate) {
		return fmt.Errorf("markov: %d rates for %d transitions", len(rates), len(c.rate))
	}
	for k, x := range rates {
		if err := CheckRate(c.names[c.from[k]], c.names[c.to[k]], x); err != nil {
			return err
		}
	}
	copy(c.rate, rates)
	return nil
}

// SteadyState is SteadyStateWithOptions on the chain at its current
// rates, with the generator written into the chain's values on the
// pattern and SOR run in the chain's workspace. A vector SOR returns is
// that workspace's: the chain's next solve overwrites it.
func (r *Rated) SteadyState(opts SteadyStateOptions) ([]float64, error) {
	r.pattern.fill(&r.chain, r.vals)
	return r.chain.steadyState(r.q, opts, &r.sor)
}
