// Package modelio defines the JSON model-description format consumed by
// cmd/relcli and converts specifications into solver objects. It lets a
// user describe an RBD, fault tree, CTMC, or reliability graph in a file
// and request measures without writing Go — the "software package"
// interface the tutorial's lineage of tools (SHARPE, SPNP) provided.
//
// Documents are decoded by encoding/json with unknown fields refused,
// except that a ctmc document in plain JSON (no escapes, no null, keys
// spelled exactly) takes a one-pass decoder that builds the same Spec
// without reflection. Generated chains run to megabytes of transitions,
// and through reflection they cost more to decode than to solve.
package modelio

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/dist"
	"repro/internal/failpoint"
)

// Failpoints this package declares (see internal/failpoint). An injected
// parse fault surfaces as the raw *failpoint.Error (not ErrBadSpec), so
// callers can tell "the document is bad" from "the parser broke".
const (
	fpParse = "modelio.parse"
	fpBuild = "modelio.build"
)

// Spec is the top-level model document.
type Spec struct {
	// Type selects the model family: "rbd", "faulttree", "ctmc", or
	// "relgraph".
	Type string `json:"type"`
	// Name optionally labels the model in reports.
	Name string `json:"name,omitempty"`
	// Exactly one of the following must be present, matching Type.
	RBD       *RBDSpec       `json:"rbd,omitempty"`
	FaultTree *FaultTreeSpec `json:"faulttree,omitempty"`
	CTMC      *CTMCSpec      `json:"ctmc,omitempty"`
	RelGraph  *RelGraphSpec  `json:"relgraph,omitempty"`
	SPN       *SPNSpec       `json:"spn,omitempty"`
}

// DistSpec describes a lifetime/repair distribution.
type DistSpec struct {
	// Kind is one of "exponential", "weibull", "lognormal", "gamma",
	// "deterministic", "uniform", "erlang".
	Kind string `json:"kind"`
	// Rate is used by exponential (rate), gamma (rate), and erlang (per
	// stage rate).
	Rate float64 `json:"rate,omitempty"`
	// Shape is used by weibull and gamma.
	Shape float64 `json:"shape,omitempty"`
	// Scale is used by weibull.
	Scale float64 `json:"scale,omitempty"`
	// Mu and Sigma are used by lognormal.
	Mu    float64 `json:"mu,omitempty"`
	Sigma float64 `json:"sigma,omitempty"`
	// Value is used by deterministic.
	Value float64 `json:"value,omitempty"`
	// Lo and Hi are used by uniform.
	Lo float64 `json:"lo,omitempty"`
	Hi float64 `json:"hi,omitempty"`
	// Stages is used by erlang.
	Stages int `json:"stages,omitempty"`
}

// ErrBadSpec reports a malformed model document.
var ErrBadSpec = errors.New("modelio: invalid specification")

// Distribution converts the spec into a dist.Distribution.
func (d *DistSpec) Distribution() (dist.Distribution, error) {
	if d == nil {
		return nil, fmt.Errorf("%w: missing distribution", ErrBadSpec)
	}
	switch d.Kind {
	case "exponential":
		return dist.NewExponential(d.Rate)
	case "weibull":
		return dist.NewWeibull(d.Shape, d.Scale)
	case "lognormal":
		return dist.NewLognormal(d.Mu, d.Sigma)
	case "gamma":
		return dist.NewGamma(d.Shape, d.Rate)
	case "deterministic":
		return dist.NewDeterministic(d.Value)
	case "uniform":
		return dist.NewUniform(d.Lo, d.Hi)
	case "erlang":
		return dist.NewErlang(d.Stages, d.Rate)
	default:
		return nil, fmt.Errorf("%w: unknown distribution kind %q", ErrBadSpec, d.Kind)
	}
}

// RBDSpec describes a reliability block diagram.
type RBDSpec struct {
	// Components declares the component pool.
	Components []RBDComponent `json:"components"`
	// Structure is the block tree.
	Structure *BlockSpec `json:"structure"`
	// Measures selects outputs: "availability", "mttf", "reliability"
	// (requires Time), "mincuts", "importance" (requires Time).
	Measures []string `json:"measures"`
	// Time is the mission time for time-dependent measures.
	Time float64 `json:"time,omitempty"`
}

// RBDComponent is one named component.
type RBDComponent struct {
	Name     string    `json:"name"`
	Lifetime *DistSpec `json:"lifetime"`
	Repair   *DistSpec `json:"repair,omitempty"`
}

// BlockSpec is a node of the RBD structure tree: either a component
// reference or an operator over children.
type BlockSpec struct {
	// Comp references a component by name (leaf).
	Comp string `json:"comp,omitempty"`
	// Op is "series", "parallel", or "kofn".
	Op string `json:"op,omitempty"`
	// K is the threshold for kofn.
	K int `json:"k,omitempty"`
	// Children are the operand blocks.
	Children []*BlockSpec `json:"children,omitempty"`
}

// FaultTreeSpec describes a fault tree.
type FaultTreeSpec struct {
	// Events declares the basic events.
	Events []FTEvent `json:"events"`
	// Top is the gate tree.
	Top *GateSpec `json:"top"`
	// Measures selects outputs: "top", "mincuts", "importance",
	// "rare-event", "topAt" (requires Time and event lifetimes), "mttf"
	// (requires event lifetimes).
	Measures []string `json:"measures"`
	// Time is the mission time for "topAt".
	Time float64 `json:"time,omitempty"`
	// BDDBudget caps the top-event BDD at that many internal nodes. When
	// the compile exceeds it, the solve falls back to MOCUS cut-set
	// enumeration with rare-event bounds instead of exact probabilities
	// (the Boeing path); both attempts appear in the trace. 0 disables the
	// budget.
	BDDBudget int `json:"bddBudget,omitempty"`
}

// FTEvent is one named basic event. Prob drives the static measures
// ("top", "importance", …); Lifetime drives the time-dependent ones
// ("topAt", "mttf").
type FTEvent struct {
	Name     string    `json:"name"`
	Prob     float64   `json:"prob,omitempty"`
	Lifetime *DistSpec `json:"lifetime,omitempty"`
}

// GateSpec is a node of the fault-tree gate tree.
type GateSpec struct {
	// Event references a basic event by name (leaf).
	Event string `json:"event,omitempty"`
	// Op is "and", "or", "atleast", or "not".
	Op string `json:"op,omitempty"`
	// K is the threshold for atleast.
	K int `json:"k,omitempty"`
	// Children are the operand gates.
	Children []*GateSpec `json:"children,omitempty"`
}

// CTMCSpec describes a continuous-time Markov chain.
type CTMCSpec struct {
	// Transitions lists the rates.
	Transitions []CTMCTransition `json:"transitions"`
	// Initial names the initial state for transient/absorbing measures.
	Initial string `json:"initial,omitempty"`
	// UpStates names the states counted as "up" for availability measures.
	UpStates []string `json:"upStates,omitempty"`
	// Absorbing names the failure states for the "mtta" measure.
	Absorbing []string `json:"absorbing,omitempty"`
	// Measures selects outputs: "steadystate", "availability",
	// "transient" (requires Time and Initial), "mtta" (requires Initial
	// and Absorbing).
	Measures []string `json:"measures"`
	// Time is the horizon for "transient".
	Time float64 `json:"time,omitempty"`
	// Solver selects the steady-state method: "auto" (default), "gth",
	// "sor", or "chain" (SOR escalating to exact GTH on convergence
	// failure, with both attempts recorded in the trace).
	Solver string `json:"solver,omitempty"`
	// SolverTol overrides the iterative solver's convergence tolerance.
	SolverTol float64 `json:"solverTol,omitempty"`
	// SolverMaxIter overrides the iterative solver's sweep budget.
	SolverMaxIter int `json:"solverMaxIter,omitempty"`
	// SolverOmega overrides the SOR relaxation factor (must lie in (0,2);
	// 0 means the solver default).
	SolverOmega float64 `json:"solverOmega,omitempty"`
	// Lump controls the automatic state-space reduction pre-pass: "" or
	// "auto" aggregates an exactly-lumpable chain before solving when
	// every requested measure is preserved by the lumping (availability,
	// mtta); "off" disables the pre-pass.
	Lump string `json:"lump,omitempty"`
}

// CTMCTransition is one rate entry.
type CTMCTransition struct {
	From string  `json:"from"`
	To   string  `json:"to"`
	Rate float64 `json:"rate"`
}

// RelGraphSpec describes an s–t reliability graph.
type RelGraphSpec struct {
	// Edges lists the failing links.
	Edges []RGEdge `json:"edges"`
	// Source and Target are the terminal nodes.
	Source string `json:"source"`
	Target string `json:"target"`
	// Measures selects outputs: "reliability", "minpaths", "mincuts".
	Measures []string `json:"measures"`
}

// RGEdge is one named edge.
type RGEdge struct {
	Name string  `json:"name"`
	From string  `json:"from"`
	To   string  `json:"to"`
	Rel  float64 `json:"rel"`
}

// Parse reads a model document from r to EOF and parses it as
// ParseBytes does. A read failure wraps ErrBadSpec too.
func Parse(r io.Reader) (*Spec, error) {
	if err := failpoint.Inject(fpParse); err != nil {
		return nil, err
	}
	b, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	return parse(b)
}

// ParseBytes parses the model document in b with DecodeBytes and checks
// that its type names a section it carries. It decodes b where it lies,
// so a caller that has read the document already (relcli serve has, to
// hash it) hands it over without a copy; the Spec keeps no reference to
// b. A decode or type failure wraps ErrBadSpec.
func ParseBytes(b []byte) (*Spec, error) {
	if err := failpoint.Inject(fpParse); err != nil {
		return nil, err
	}
	return parse(b)
}

func parse(b []byte) (*Spec, error) {
	s, err := DecodeBytes(b)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	switch s.Type {
	case "rbd":
		if s.RBD == nil {
			return nil, fmt.Errorf("%w: type rbd without rbd section", ErrBadSpec)
		}
	case "faulttree":
		if s.FaultTree == nil {
			return nil, fmt.Errorf("%w: type faulttree without faulttree section", ErrBadSpec)
		}
	case "ctmc":
		if s.CTMC == nil {
			return nil, fmt.Errorf("%w: type ctmc without ctmc section", ErrBadSpec)
		}
	case "relgraph":
		if s.RelGraph == nil {
			return nil, fmt.Errorf("%w: type relgraph without relgraph section", ErrBadSpec)
		}
	case "spn":
		if s.SPN == nil {
			return nil, fmt.Errorf("%w: type spn without spn section", ErrBadSpec)
		}
	default:
		return nil, fmt.Errorf("%w: unknown type %q", ErrBadSpec, s.Type)
	}
	return s, nil
}
