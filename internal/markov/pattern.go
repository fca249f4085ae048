package markov

import (
	"fmt"

	"repro/internal/linalg"
)

// Pattern is the sparsity structure of a chain's generator together
// with the value slot that each transition and each diagonal of the
// chain writes. A chain rated from the same one (see WithRates) writes
// its generator into the pattern instead of laying it out again, which
// is what lets a parameter sweep build the structure once. A Pattern is
// never modified after NewPattern returns it, so concurrent callers may
// share it.
type Pattern struct {
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
	return Pattern{q: q, slots: slots}, err
}

// NewPattern lays out c's generator and records where each of c's
// transitions and diagonals lands in it. The pattern keeps its transpose
// as well, so SOR on a generator filled into it places values instead of
// transposing the pattern again. Since the pattern fixes c's structure,
// c keeps its closed classes from the first solve that finds them on,
// for itself and for every chain WithRates makes from it.
func NewPattern(c *CTMC) (*Pattern, error) {
	p, err := layout(c)
	if err != nil {
		return nil, err
	}
	p.q = p.q.WithTranspose()
	c.classes = new(closedClassCache)
	return &p, nil
}

// Fill returns the generator of c, a chain rated from the one the
// pattern was built from, on the pattern's structure. Each entry and
// each diagonal is summed in transition order, exactly as Generator sums
// it.
func (p *Pattern) Fill(c *CTMC) (*linalg.CSR, error) {
	nt := len(c.from)
	if nt+len(c.names) != len(p.slots) {
		return nil, fmt.Errorf("markov: chain with %d states and %d transitions does not fit a pattern of %d slots",
			len(c.names), nt, len(p.slots))
	}
	vals := make([]float64, p.q.NNZ())
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
	return p.q.WithValues(vals)
}
