package markov

import (
	"fmt"

	"repro/internal/linalg"
)

// Pattern is the sparsity structure of a chain's generator together
// with the value slot that each transition and each diagonal of the
// chain writes. A chain rated from the same one (see WithRates) writes
// its generator into the pattern instead of assembling and sorting it
// again, which is what lets a parameter sweep build the structure once.
// A Pattern is never modified after NewPattern returns it, so concurrent
// callers may share it.
type Pattern struct {
	q *linalg.CSR // its values are never read
	// slots holds the value slot of each transition, in AddRate order,
	// followed by the slot of each state's diagonal (-1 for a state
	// without outflow).
	slots []int
}

// NewPattern assembles c's generator and records where each of c's
// transitions and diagonals lands in it.
func NewPattern(c *CTMC) (*Pattern, error) {
	q, err := c.Generator()
	if err != nil {
		return nil, err
	}
	slots := make([]int, len(c.trans)+len(c.names))
	for k, t := range c.trans {
		slots[k] = q.Slot(t.from, t.to)
	}
	for i := range c.names {
		slots[len(c.trans)+i] = q.Slot(i, i)
	}
	return &Pattern{q: q, slots: slots}, nil
}

// Fill returns the generator of c, a chain rated from the one the
// pattern was built from, on the pattern's structure. Diagonals are
// summed in transition order, as Generator sums them; only the entry of
// a duplicated (from, to) pair may differ from Generator's, by rounding,
// because Generator sums duplicates in sorted order.
func (p *Pattern) Fill(c *CTMC) (*linalg.CSR, error) {
	nt := len(c.trans)
	if nt+len(c.names) != len(p.slots) {
		return nil, fmt.Errorf("markov: chain with %d states and %d transitions does not fit a pattern of %d slots",
			len(c.names), nt, len(p.slots))
	}
	vals := make([]float64, p.q.NNZ())
	diag := p.slots[nt:]
	for k, t := range c.trans {
		vals[p.slots[k]] += t.rate
		vals[diag[t.from]] += t.rate
	}
	for _, d := range diag {
		if d >= 0 {
			vals[d] = -vals[d]
		}
	}
	return p.q.WithValues(vals)
}
