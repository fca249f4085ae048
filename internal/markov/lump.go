package markov

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Exact (ordinary) lumping — the tutorial's "largeness avoidance"
// counterpart to largeness tolerance: when states are symmetric (identical
// components), the chain over 2^n detailed states collapses exactly to the
// chain over component counts. Lump verifies the lumpability condition —
// for every partition block B and target block B', the total rate from
// each state of B into B' is identical — and returns the aggregated chain.

// ErrNotLumpable is returned when the partition violates the ordinary
// lumpability condition.
var ErrNotLumpable = errors.New("markov: partition is not ordinarily lumpable")

// Lump aggregates the chain according to partition, which maps every state
// name to its block name. tol bounds the allowed rate mismatch between
// states of a block (0 means exact up to 1e-9 relative).
func (c *CTMC) Lump(partition func(state string) string, tol float64) (*CTMC, error) {
	if len(c.names) == 0 {
		return nil, ErrEmptyChain
	}
	if partition == nil {
		return nil, fmt.Errorf("markov lump: nil partition")
	}
	if tol <= 0 {
		tol = 1e-9
	}
	blockOf := make([]string, len(c.names))
	members := make(map[string][]int)
	for i, name := range c.names {
		b := partition(name)
		if b == "" {
			return nil, fmt.Errorf("markov lump: state %q mapped to empty block", name)
		}
		blockOf[i] = b
		members[b] = append(members[b], i)
	}
	// Per-state outflow rates into each block.
	outflow := make([]map[string]float64, len(c.names))
	for i := range outflow {
		outflow[i] = make(map[string]float64)
	}
	for k := range c.from {
		t := c.edge(k)
		tb := blockOf[t.to]
		if tb == blockOf[t.from] {
			continue // intra-block transitions vanish in the lumped chain
		}
		outflow[t.from][tb] += t.rate
	}
	// Verify uniformity within each block and build the lumped chain.
	lumped := NewCTMC()
	blocks := make([]string, 0, len(members))
	for b := range members {
		blocks = append(blocks, b)
	}
	sort.Strings(blocks)
	for _, b := range blocks {
		lumped.State(b)
	}
	for _, b := range blocks {
		ref := outflow[members[b][0]]
		for _, i := range members[b][1:] {
			if err := sameOutflow(ref, outflow[i], tol); err != nil {
				return nil, fmt.Errorf("%w: block %q states %q vs %q: %v",
					ErrNotLumpable, b, c.names[members[b][0]], c.names[i], err)
			}
		}
		// Target blocks in sorted order: the lumped chain's transition
		// order, and every sum over it, must not follow map order.
		targets := make([]string, 0, len(ref))
		for tb := range ref {
			targets = append(targets, tb)
		}
		sort.Strings(targets)
		for _, tb := range targets {
			if rate := ref[tb]; rate > 0 {
				if err := lumped.AddRate(b, tb, rate); err != nil {
					return nil, err
				}
			}
		}
	}
	return lumped, nil
}

// sameOutflow compares two block-outflow maps within a relative tolerance
// and reports the mismatch into the smallest block name, so the error
// does not depend on map order.
func sameOutflow(a, b map[string]float64, tol float64) error {
	first, found := "", false
	for _, m := range []map[string]float64{a, b} {
		for k := range m {
			if found && k >= first {
				continue
			}
			ra, rb := a[k], b[k]
			scale := math.Max(math.Abs(ra), math.Abs(rb))
			if scale == 0 { //numvet:allow float-eq both rates exactly zero compare equal; guards the division below
				continue
			}
			if math.Abs(ra-rb)/scale > tol {
				first, found = k, true
			}
		}
	}
	if !found {
		return nil
	}
	return fmt.Errorf("rate into %q differs: %g vs %g", first, a[first], b[first])
}
