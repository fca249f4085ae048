// Package lint statically checks reliability models for structural
// problems before they reach a solver. The tutorial's workflow trusts the
// numbers a model produces, so the most dangerous inputs are the ones that
// are *almost* right: generator rows that do not sum to zero, states the
// initial state can never reach, fault-tree gates referencing events that
// were never declared, Petri-net transitions that can never fire. This
// package turns each of those into a Diagnostic with a stable code, a
// JSON-ish path into the offending document, and an actionable message.
//
// The checks read the model documents themselves: CheckDocument decodes a
// document with modelio.Decode, Check validates a decoded modelio.Spec
// (its shape and measures) and hands each section to its formalism's
// check, which takes the modelio section type (CheckCTMC a CTMCSpec,
// CheckFaultTree a FaultTreeSpec, and so on). modelio does not import
// lint; callers that lint before solving, such as relcli solve
// -preflight, call Check themselves.
//
// # Diagnostic codes
//
// Markov chains (CheckCTMC):
//
//	CT001  error    transition rate is not a positive finite number
//	CT002  warning  self-loop transition (dropped by the solver)
//	CT003  warning  duplicate transition pair (rates are summed)
//	CT004  error    initial/up/absorbing state not in any transition
//	CT005  warning  state unreachable from the initial state
//	CT006  error*   multiple closed communicating classes (*warning
//	                unless a steady-state measure is requested)
//	CT007  warning  absorbing state in a steady-state/availability model
//	CT008  error    transition with an empty endpoint name
//	GEN001 retired  raw generator checks: no document type, CLI path
//	GEN002 retired  or solver hands lint a raw matrix
//	GEN003 retired
//	STO001 retired  raw one-step probability checks, likewise
//	STO002 retired
//	STO003 retired
//
// Fault trees (CheckFaultTree):
//
//	FT001  error    reference to an undeclared basic event
//	FT002  error    atleast gate with k out of range
//	FT003  error    event probability outside [0,1]
//	FT004  warning  shared subtree / repeated basic event (results are
//	                bounds, not exact — the Boeing bounding case)
//	FT005  warning  declared event never referenced
//	FT006  error    malformed gate (no children, unknown op, bad leaf)
//	FT007  error    cycle in the gate structure
//	FT008  error    basic event declared more than once
//	FT009  error    fault tree without a top gate
//
// Reliability block diagrams (CheckRBD):
//
//	RBD001 error    reference to an undeclared component
//	RBD002 error    kofn block with k out of range
//	RBD003 warning  declared component never placed in the structure
//	RBD004 warning  shared block / repeated component
//	RBD005 error    cycle in the block structure
//	RBD006 error    malformed block (no children, unknown op, bad leaf)
//	RBD007 error    component declared more than once
//	RBD008 error    block diagram without a structure
//
// Reliability graphs (CheckRelGraph):
//
//	RG001  error    missing or undeclared source/target terminal
//	RG002  error    edge reliability outside [0,1]
//	RG003  error    target unreachable from source
//	RG004  warning  duplicate edge name
//	RG005  warning  node on no source-to-target path
//	RG006  warning  self-loop edge
//
// Stochastic Petri nets (CheckSPN):
//
//	PN001  error    arc references an undeclared place
//	PN002  error    arc references an undeclared transition
//	PN003  error    transition rate/weight is not a positive finite number
//	PN004  error    structurally dead transition (inhibitor ≤ input mult)
//	PN005  warning  source transition makes its output places unbounded
//	PN006  error    negative initial token count
//	PN007  error    duplicate or empty place/transition name
//	PN008  error    nonpositive arc multiplicity
//	PN009  warning  place or transition with no arcs
//
// Structural analysis (also CheckCTMC, read off the same
// internal/relstruct report as CT005–CT007; only runs when the CT checks
// found no errors):
//
//	STR001 retired  reducibility is reported once, as CT006
//	STR002 warning  transient states under a steady-state measure
//	STR003 warning  recurrent class unreachable from the initial state
//	STR004 warning  stiff recurrent class (rate-ratio spread ≥ 1e6)
//	STR005 info     states lump exactly into fewer macro-states
//	STR006 warning  periodic recurrent class (discrete chains)
//	STR007 info     initial state is transient
//	STR008 warning  chain splits into disconnected components
//	STR009 info     distilled structural solver hint
//	STR010 warning  rate span beyond double-precision comfort (≥ 1e12)
//
// Distributions (CheckDist):
//
//	DIST001 error   invalid distribution parameter
//	DIST002 error   unknown distribution kind
//
// Documents (Check and CheckDocument):
//
//	SPEC001 error   document is not valid JSON for the model schema
//	SPEC002 error   unknown or missing model type
//	SPEC003 error   model type without its matching section
//	SPEC004 error   unknown measure name
//	SPEC005 error   measure requires a field the document does not set
package lint

// Diagnostic code constants. The codes are stable identifiers: tests,
// scripts, and downstream tooling match on them, so existing codes must
// never be renumbered — only appended to.
const (
	CodeCTMCBadRate      = "CT001"
	CodeCTMCSelfLoop     = "CT002"
	CodeCTMCDuplicate    = "CT003"
	CodeCTMCUnknownState = "CT004"
	CodeCTMCUnreachable  = "CT005"
	CodeCTMCReducible    = "CT006"
	CodeCTMCAbsorbing    = "CT007"
	CodeCTMCEmptyState   = "CT008"

	// GEN001–GEN003 and STO001–STO003 are retired: no input reached the
	// raw-matrix checks that issued them.

	CodeFTUnknownEvent   = "FT001"
	CodeFTArity          = "FT002"
	CodeFTProbRange      = "FT003"
	CodeFTSharedSubtree  = "FT004"
	CodeFTUnusedEvent    = "FT005"
	CodeFTBadGate        = "FT006"
	CodeFTCycle          = "FT007"
	CodeFTDuplicateEvent = "FT008"
	CodeFTMissingTop     = "FT009"

	CodeRBDUnknownComp      = "RBD001"
	CodeRBDArity            = "RBD002"
	CodeRBDUnusedComp       = "RBD003"
	CodeRBDSharedBlock      = "RBD004"
	CodeRBDCycle            = "RBD005"
	CodeRBDBadBlock         = "RBD006"
	CodeRBDDuplicateComp    = "RBD007"
	CodeRBDMissingStructure = "RBD008"

	CodeRGBadTerminal   = "RG001"
	CodeRGRelRange      = "RG002"
	CodeRGUnreachable   = "RG003"
	CodeRGDuplicateEdge = "RG004"
	CodeRGOffPath       = "RG005"
	CodeRGSelfLoop      = "RG006"

	CodePNUnknownPlace      = "PN001"
	CodePNUnknownTransition = "PN002"
	CodePNBadRate           = "PN003"
	CodePNDeadTransition    = "PN004"
	CodePNUnbounded         = "PN005"
	CodePNNegativeTokens    = "PN006"
	CodePNDuplicateName     = "PN007"
	CodePNBadMult           = "PN008"
	CodePNDisconnected      = "PN009"

	// STR001 is retired: CT006 reports reducibility.
	CodeStructTransientMass    = "STR002"
	CodeStructUnreachableClass = "STR003"
	CodeStructStiff            = "STR004"
	CodeStructLumpable         = "STR005"
	CodeStructPeriodic         = "STR006"
	CodeStructTransientInitial = "STR007"
	CodeStructDisconnected     = "STR008"
	CodeStructSolverHint       = "STR009"
	CodeStructRateSpan         = "STR010"

	CodeDistBadParam    = "DIST001"
	CodeDistUnknownKind = "DIST002"

	CodeSpecParse   = "SPEC001"
	CodeSpecType    = "SPEC002"
	CodeSpecSection = "SPEC003"
	CodeSpecMeasure = "SPEC004"
	CodeSpecField   = "SPEC005"
)
