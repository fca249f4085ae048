package markov

import (
	"fmt"
	"strconv"
)

// This file provides builders for the canonical availability chains the
// tutorial walks through: k-of-n systems with limited repair crews, and
// cold/warm/hot standby pairs with imperfect switch-over coverage. They
// encode the standard textbook generators so examples and user models
// don't re-derive them (and mis-derive them) by hand.

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

// StandbyKind selects the standby regime of BuildStandbyPair.
type StandbyKind int

// Standby regimes.
const (
	// ColdStandby: the spare cannot fail while waiting.
	ColdStandby StandbyKind = iota + 1
	// WarmStandby: the spare fails at a reduced (dormancy) rate.
	WarmStandby
	// HotStandby: the spare fails at the full rate.
	HotStandby
)

// StandbyOptions parameterizes BuildStandbyPair.
type StandbyOptions struct {
	// Kind selects cold/warm/hot standby.
	Kind StandbyKind
	// FailureRate is the active unit's failure rate.
	FailureRate float64
	// DormancyFactor scales the spare's failure rate for WarmStandby
	// (0 < factor < 1); ignored otherwise.
	DormancyFactor float64
	// RepairRate is the (single-crew) repair rate.
	RepairRate float64
	// Coverage is the probability the switch-over to the spare succeeds;
	// an uncovered switch-over takes the system down until repair.
	Coverage float64
}

// StandbyModel packages the generated standby chain.
//
// States: "both" (active + good spare), "one" (one good unit active),
// "down" (no unit serving — either both failed or an uncovered
// switch-over).
type StandbyModel struct {
	// Chain is the generated 3-state chain.
	Chain *CTMC
}

// BuildStandbyPair constructs the classic standby-redundancy chain with
// imperfect switch-over coverage.
func BuildStandbyPair(opts StandbyOptions) (*StandbyModel, error) { //numvet:allow unused-export delete: standby builder; no binary reaches it, and it goes with its four tests
	if opts.FailureRate <= 0 || opts.RepairRate <= 0 {
		return nil, fmt.Errorf("markov: standby rates λ=%g μ=%g", opts.FailureRate, opts.RepairRate)
	}
	if opts.Coverage < 0 || opts.Coverage > 1 {
		return nil, fmt.Errorf("markov: standby coverage %g", opts.Coverage)
	}
	var spareRate float64
	switch opts.Kind {
	case ColdStandby:
		spareRate = 0
	case WarmStandby:
		if opts.DormancyFactor <= 0 || opts.DormancyFactor >= 1 {
			return nil, fmt.Errorf("markov: warm standby dormancy factor %g", opts.DormancyFactor)
		}
		spareRate = opts.DormancyFactor * opts.FailureRate
	case HotStandby:
		spareRate = opts.FailureRate
	default:
		return nil, fmt.Errorf("markov: unknown standby kind %d", opts.Kind)
	}
	lam, mu, c := opts.FailureRate, opts.RepairRate, opts.Coverage
	chain := NewCTMC()
	// Active fails: covered switch-over → "one"; uncovered → "down".
	if c > 0 {
		if err := chain.AddRate("both", "one", lam*c); err != nil {
			return nil, err
		}
	}
	if c < 1 {
		if err := chain.AddRate("both", "down", lam*(1-c)); err != nil {
			return nil, err
		}
	}
	// Spare fails silently in "both" (detected, repaired): same "one"
	// state (one good unit, one in repair).
	if spareRate > 0 {
		if err := chain.AddRate("both", "one", spareRate); err != nil {
			return nil, err
		}
	}
	// From "one": the serving unit fails → down; repair completes → both.
	if err := chain.AddRate("one", "down", lam); err != nil {
		return nil, err
	}
	if err := chain.AddRate("one", "both", mu); err != nil {
		return nil, err
	}
	// From "down": repair restores one unit into service.
	if err := chain.AddRate("down", "one", mu); err != nil {
		return nil, err
	}
	return &StandbyModel{Chain: chain}, nil
}

// Availability returns the steady-state availability (up in "both"/"one").
func (m *StandbyModel) Availability() (float64, error) { //numvet:allow unused-export delete: standby builder; no binary reaches it, and it goes with its four tests
	pi, err := m.Chain.SteadyState()
	if err != nil {
		return 0, err
	}
	return m.Chain.ProbSum(pi, "both", "one")
}

// MTTF returns the mean time to first entry into "down" from "both".
func (m *StandbyModel) MTTF() (float64, error) { //numvet:allow unused-export delete: standby builder; no binary reaches it, and it goes with its four tests
	return m.Chain.MTTF("both", "down")
}
