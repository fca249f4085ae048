package markov

import (
	"fmt"
	"strconv"
)

// This file provides a builder for the canonical availability chain the
// tutorial walks through: k-of-n systems with limited repair crews. It
// encodes the standard textbook generator so examples and user models
// don't re-derive it (and mis-derive it) by hand.

// KOfNOptions parameterizes BuildKOfN.
type KOfNOptions struct {
	// N is the number of identical units; K the number required up.
	N, K int
	// FailureRate is the per-unit failure rate while operating.
	FailureRate float64
	// RepairRate is the per-crew repair rate.
	RepairRate float64
	// Crews is the number of parallel repair crews (≥ 1); failed units
	// beyond the crew count queue.
	Crews int
	// FailInDown, when true, lets surviving units keep failing after the
	// system is down (components don't know the system state); when false
	// the system stops when it fails.
	FailInDown bool
}

// KOfNModel packages the generated chain with its measure helpers.
type KOfNModel struct {
	// Chain is the birth–death chain over the number of failed units.
	Chain *CTMC
	opts  KOfNOptions
}

// BuildKOfN constructs the k-of-n availability chain. State f ∈ 0..N
// counts failed units; the system is up while f ≤ N−K.
func BuildKOfN(opts KOfNOptions) (*KOfNModel, error) {
	if opts.N < 1 || opts.K < 1 || opts.K > opts.N {
		return nil, fmt.Errorf("markov: k-of-n with n=%d k=%d", opts.N, opts.K)
	}
	if opts.FailureRate <= 0 || opts.RepairRate <= 0 {
		return nil, fmt.Errorf("markov: k-of-n rates λ=%g μ=%g", opts.FailureRate, opts.RepairRate)
	}
	if opts.Crews < 1 {
		return nil, fmt.Errorf("markov: k-of-n with %d repair crews", opts.Crews)
	}
	c := NewCTMC()
	name := func(f int) string { return "f" + strconv.Itoa(f) }
	maxFail := opts.N
	if !opts.FailInDown {
		maxFail = opts.N - opts.K + 1 // one past the failure threshold
	}
	for f := 0; f < maxFail; f++ {
		up := opts.N - f
		if err := c.AddRate(name(f), name(f+1), float64(up)*opts.FailureRate); err != nil {
			return nil, err
		}
	}
	for f := 1; f <= maxFail; f++ {
		crews := f
		if crews > opts.Crews {
			crews = opts.Crews
		}
		if err := c.AddRate(name(f), name(f-1), float64(crews)*opts.RepairRate); err != nil {
			return nil, err
		}
	}
	return &KOfNModel{Chain: c, opts: opts}, nil
}

// UpStates returns the names of the states where the system is up.
func (m *KOfNModel) UpStates() []string {
	var out []string
	for f := 0; f <= m.opts.N-m.opts.K; f++ {
		if _, err := m.Chain.Index("f" + strconv.Itoa(f)); err == nil {
			out = append(out, "f"+strconv.Itoa(f))
		}
	}
	return out
}

// Availability returns the steady-state availability.
func (m *KOfNModel) Availability() (float64, error) {
	pi, err := m.Chain.SteadyState()
	if err != nil {
		return 0, err
	}
	return m.Chain.ProbSum(pi, m.UpStates()...)
}
