package modelio

import (
	"fmt"
	"io"

	"repro/internal/lint"
	"repro/internal/relstruct"
)

// This file adapts parsed model documents into the inputs of the
// internal/lint analyzers. The lint package deliberately does not know
// about the JSON spec types (modelio depends on lint for the pre-flight
// hook, so the reverse import would cycle); the conversion here is the
// single place where document paths and formalism inputs meet.

// LintDocument reads a model document to EOF, decodes it as Parse does
// and lints it, folding parse-level failures (invalid JSON, unknown
// model type, missing section) into SPEC-coded diagnostics instead of
// bare errors. The returned spec is nil when the document could not be
// decoded at all; the structural report is Lint's.
func LintDocument(r io.Reader) (*Spec, []lint.Diagnostic, *relstruct.StructReport) {
	s, err := decode(r)
	if err != nil {
		return nil, []lint.Diagnostic{{
			Code: lint.CodeSpecParse, Severity: lint.SevError,
			Msg: fmt.Sprintf("document is not a valid model description: %v", err),
		}}, nil
	}
	ds, rep := Lint(s)
	return s, ds, rep
}

// Lint statically checks a parsed model document and returns the findings
// in lint.Sort order. It validates the document shape (type, section,
// measures and their required fields) and then runs the formalism's
// analyzer from internal/lint over the model structure. For a ctmc
// document it also returns the structural report that analyzer read (nil
// for other types, and for a chain without states).
func Lint(s *Spec) ([]lint.Diagnostic, *relstruct.StructReport) {
	ds := checkShape(s)
	if lint.HasErrors(ds) {
		return ds, nil
	}
	var rep *relstruct.StructReport
	switch s.Type {
	case "rbd":
		ds = append(ds, checkRBDMeasures(s.RBD)...)
		ds = append(ds, lint.CheckRBD(convRBD(s.RBD))...)
	case "faulttree":
		ds = append(ds, checkFTMeasures(s.FaultTree)...)
		ds = append(ds, lint.CheckFaultTree(convFaultTree(s.FaultTree))...)
	case "ctmc":
		ds = append(ds, checkCTMCMeasures(s.CTMC)...)
		var cds []lint.Diagnostic
		cds, rep = lint.CheckCTMC(convCTMC(s.CTMC))
		ds = append(ds, cds...)
	case "relgraph":
		ds = append(ds, checkRGMeasures(s.RelGraph)...)
		ds = append(ds, lint.CheckRelGraph(convRelGraph(s.RelGraph))...)
	case "spn":
		ds = append(ds, checkSPNMeasures(s.SPN)...)
		ds = append(ds, lint.CheckSPN(convSPN(s.SPN))...)
	}
	lint.Sort(ds)
	return ds, rep
}

// checkShape validates the type/section pairing of the document.
func checkShape(s *Spec) []lint.Diagnostic {
	specErr := func(code, path, format string, args ...any) []lint.Diagnostic {
		return []lint.Diagnostic{{
			Code: code, Severity: lint.SevError, Path: path,
			Msg: fmt.Sprintf(format, args...),
		}}
	}
	switch s.Type {
	case "":
		return specErr(lint.CodeSpecType, "type", "document does not declare a model type")
	case "rbd":
		if s.RBD == nil {
			return specErr(lint.CodeSpecSection, "rbd", "type %q without a matching section", s.Type)
		}
	case "faulttree":
		if s.FaultTree == nil {
			return specErr(lint.CodeSpecSection, "faulttree", "type %q without a matching section", s.Type)
		}
	case "ctmc":
		if s.CTMC == nil {
			return specErr(lint.CodeSpecSection, "ctmc", "type %q without a matching section", s.Type)
		}
	case "relgraph":
		if s.RelGraph == nil {
			return specErr(lint.CodeSpecSection, "relgraph", "type %q without a matching section", s.Type)
		}
	case "spn":
		if s.SPN == nil {
			return specErr(lint.CodeSpecSection, "spn", "type %q without a matching section", s.Type)
		}
	default:
		return specErr(lint.CodeSpecType, "type", "unknown model type %q", s.Type)
	}
	return nil
}

func measureErr(code string, i int, format string, args ...any) lint.Diagnostic {
	return lint.Diagnostic{
		Code: code, Severity: lint.SevError,
		Path: fmt.Sprintf("measures[%d]", i),
		Msg:  fmt.Sprintf(format, args...),
	}
}

func checkRBDMeasures(spec *RBDSpec) []lint.Diagnostic {
	var ds []lint.Diagnostic
	for i, m := range spec.Measures {
		switch m {
		case "availability", "mttf", "mincuts":
		case "reliability", "importance":
			if spec.Time <= 0 {
				ds = append(ds, measureErr(lint.CodeSpecField, i, "measure %q needs a positive time field", m))
			}
		default:
			ds = append(ds, measureErr(lint.CodeSpecMeasure, i, "unknown rbd measure %q", m))
		}
	}
	return ds
}

func checkFTMeasures(spec *FaultTreeSpec) []lint.Diagnostic {
	var ds []lint.Diagnostic
	for i, m := range spec.Measures {
		switch m {
		case "top", "mincuts", "rare-event", "importance", "mttf":
		case "topAt":
			if spec.Time <= 0 {
				ds = append(ds, measureErr(lint.CodeSpecField, i, "measure %q needs a positive time field", m))
			}
		default:
			ds = append(ds, measureErr(lint.CodeSpecMeasure, i, "unknown faulttree measure %q", m))
		}
	}
	return ds
}

func checkCTMCMeasures(spec *CTMCSpec) []lint.Diagnostic {
	var ds []lint.Diagnostic
	for i, m := range spec.Measures {
		switch m {
		case "steadystate":
		case "availability":
			if len(spec.UpStates) == 0 {
				ds = append(ds, measureErr(lint.CodeSpecField, i, "measure %q needs upStates", m))
			}
		case "transient":
			if spec.Initial == "" || spec.Time <= 0 {
				ds = append(ds, measureErr(lint.CodeSpecField, i, "measure %q needs initial and a positive time", m))
			}
		case "mtta":
			if spec.Initial == "" || len(spec.Absorbing) == 0 {
				ds = append(ds, measureErr(lint.CodeSpecField, i, "measure %q needs initial and absorbing states", m))
			}
		default:
			ds = append(ds, measureErr(lint.CodeSpecMeasure, i, "unknown ctmc measure %q", m))
		}
	}
	switch spec.Solver {
	case "", "auto", "gth", "sor", "chain":
	default:
		ds = append(ds, lint.Diagnostic{
			Code: lint.CodeSpecField, Severity: lint.SevError, Path: "ctmc.solver",
			Msg: fmt.Sprintf("unknown solver %q (want auto, gth, sor, or chain)", spec.Solver),
		})
	}
	switch spec.Lump {
	case "", "auto", "off":
	default:
		ds = append(ds, lint.Diagnostic{
			Code: lint.CodeSpecField, Severity: lint.SevError, Path: "ctmc.lump",
			Msg: fmt.Sprintf("unknown lump mode %q (want auto or off)", spec.Lump),
		})
	}
	if spec.SolverOmega != 0 && (spec.SolverOmega <= 0 || spec.SolverOmega >= 2) { //numvet:allow float-eq zero means unset; option-default sentinel
		ds = append(ds, lint.Diagnostic{
			Code: lint.CodeSpecField, Severity: lint.SevError, Path: "ctmc.solverOmega",
			Msg: fmt.Sprintf("SOR relaxation factor %g outside (0,2)", spec.SolverOmega),
		})
	}
	return ds
}

func checkRGMeasures(spec *RelGraphSpec) []lint.Diagnostic {
	var ds []lint.Diagnostic
	for i, m := range spec.Measures {
		switch m {
		case "reliability", "minpaths", "mincuts":
		default:
			ds = append(ds, measureErr(lint.CodeSpecMeasure, i, "unknown relgraph measure %q", m))
		}
	}
	return ds
}

func checkSPNMeasures(spec *SPNSpec) []lint.Diagnostic {
	places := map[string]bool{}
	for _, p := range spec.Places {
		places[p.Name] = true
	}
	trans := map[string]bool{}
	for _, t := range spec.Transitions {
		trans[t.Name] = true
	}
	conds := map[string]SPNCondition{}
	var ds []lint.Diagnostic
	for i, c := range spec.Conditions {
		path := fmt.Sprintf("spn.conditions[%d]", i)
		if !places[c.Place] {
			ds = append(ds, lint.Diagnostic{
				Code: lint.CodeSpecField, Severity: lint.SevError, Path: path,
				Msg: fmt.Sprintf("condition %q references undeclared place %q", c.Name, c.Place),
			})
		}
		switch c.Op {
		case ">=", "<=", "==":
		default:
			ds = append(ds, lint.Diagnostic{
				Code: lint.CodeSpecField, Severity: lint.SevError, Path: path,
				Msg: fmt.Sprintf("condition %q op %q is not one of >=, <=, ==", c.Name, c.Op),
			})
		}
		conds[c.Name] = c
	}
	for i, m := range spec.Measures {
		switch {
		case m == "states":
		case len(m) > len("throughput:") && m[:len("throughput:")] == "throughput:":
			if name := m[len("throughput:"):]; !trans[name] {
				ds = append(ds, measureErr(lint.CodeSpecField, i, "throughput measure references undeclared transition %q", name))
			}
		case len(m) > len("tokens:") && m[:len("tokens:")] == "tokens:":
			if name := m[len("tokens:"):]; !places[name] {
				ds = append(ds, measureErr(lint.CodeSpecField, i, "tokens measure references undeclared place %q", name))
			}
		case len(m) > len("prob:") && m[:len("prob:")] == "prob:":
			if name := m[len("prob:"):]; conds[name].Name == "" {
				ds = append(ds, measureErr(lint.CodeSpecField, i, "prob measure references undeclared condition %q", name))
			}
		default:
			ds = append(ds, measureErr(lint.CodeSpecMeasure, i, "unknown spn measure %q", m))
		}
	}
	return ds
}

// convDist maps a distribution spec onto the linter's view.
func convDist(d *DistSpec) *lint.Dist {
	if d == nil {
		return nil
	}
	return &lint.Dist{
		Kind: d.Kind, Rate: d.Rate, Shape: d.Shape, Scale: d.Scale,
		Mu: d.Mu, Sigma: d.Sigma, Value: d.Value, Lo: d.Lo, Hi: d.Hi,
		Stages: d.Stages,
	}
}

func convRBD(spec *RBDSpec) lint.RBD {
	var out lint.RBD
	for _, c := range spec.Components {
		out.Components = append(out.Components, lint.RBDComponent{
			Name: c.Name, Lifetime: convDist(c.Lifetime), Repair: convDist(c.Repair),
		})
	}
	out.Structure = convBlock(spec.Structure, map[*BlockSpec]*lint.Block{})
	return out
}

// convBlock converts the block tree, preserving pointer sharing (and even
// cycles, which the linter then reports) via memoization.
func convBlock(b *BlockSpec, memo map[*BlockSpec]*lint.Block) *lint.Block {
	if b == nil {
		return nil
	}
	if out, ok := memo[b]; ok {
		return out
	}
	out := &lint.Block{Comp: b.Comp, Op: b.Op, K: b.K}
	memo[b] = out
	for _, c := range b.Children {
		out.Children = append(out.Children, convBlock(c, memo))
	}
	return out
}

func convFaultTree(spec *FaultTreeSpec) lint.FaultTree {
	var out lint.FaultTree
	for _, e := range spec.Events {
		out.Events = append(out.Events, lint.FTEvent{
			Name: e.Name, Prob: e.Prob, Lifetime: convDist(e.Lifetime),
		})
	}
	out.Top = convGate(spec.Top, map[*GateSpec]*lint.Gate{})
	return out
}

// convGate converts the gate tree, preserving pointer sharing and cycles
// via memoization.
func convGate(g *GateSpec, memo map[*GateSpec]*lint.Gate) *lint.Gate {
	if g == nil {
		return nil
	}
	if out, ok := memo[g]; ok {
		return out
	}
	out := &lint.Gate{Event: g.Event, Op: g.Op, K: g.K}
	memo[g] = out
	for _, c := range g.Children {
		out.Children = append(out.Children, convGate(c, memo))
	}
	return out
}

func convCTMC(spec *CTMCSpec) lint.CTMC {
	out := lint.CTMC{
		Transitions: make([]lint.Transition, 0, len(spec.Transitions)),
		Initial:     spec.Initial,
		UpStates:    spec.UpStates,
		Absorbing:   spec.Absorbing,
	}
	for _, tr := range spec.Transitions {
		out.Transitions = append(out.Transitions, lint.Transition{From: tr.From, To: tr.To, Rate: tr.Rate})
	}
	for _, m := range spec.Measures {
		if m == "steadystate" || m == "availability" {
			out.NeedsSteadyState = true
		}
	}
	return out
}

func convRelGraph(spec *RelGraphSpec) lint.RelGraph {
	out := lint.RelGraph{Source: spec.Source, Target: spec.Target}
	for _, e := range spec.Edges {
		out.Edges = append(out.Edges, lint.RGEdge{Name: e.Name, From: e.From, To: e.To, Rel: e.Rel})
	}
	return out
}

func convSPN(spec *SPNSpec) lint.SPN {
	var out lint.SPN
	for _, p := range spec.Places {
		out.Places = append(out.Places, lint.SPNPlace{Name: p.Name, Tokens: p.Tokens})
	}
	for _, t := range spec.Transitions {
		out.Transitions = append(out.Transitions, lint.SPNTransition{Name: t.Name, Kind: t.Kind, Rate: t.Rate})
	}
	for _, a := range spec.Arcs {
		out.Arcs = append(out.Arcs, lint.SPNArc{Kind: a.Kind, Place: a.Place, Transition: a.Transition, Mult: a.Mult})
	}
	return out
}
