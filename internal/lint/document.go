package lint

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/modelio"
	"repro/internal/relstruct"
)

// CheckDocument reads a model document to EOF, decodes it with
// modelio.Decode and checks it, folding a document that does not decode
// (invalid JSON, an unknown field) into a SPEC001 diagnostic instead of
// a bare error. The returned spec is nil when the document could not be
// decoded at all; the structural report is Check's.
func CheckDocument(r io.Reader) (*modelio.Spec, []Diagnostic, *relstruct.StructReport) {
	s, err := modelio.Decode(r)
	if err != nil {
		return nil, errf(nil, CodeSpecParse, "", "document is not a valid model description: %v", err), nil
	}
	ds, rep := Check(s)
	return s, ds, rep
}

// Check statically checks a decoded model document and returns the
// findings in Sort order. It validates the document shape (type,
// section, measures and their required fields) and then runs the
// formalism's check over the model structure. For a ctmc document it
// also returns the structural report CheckCTMC read (nil for other
// types, and for a chain without states).
func Check(s *modelio.Spec) ([]Diagnostic, *relstruct.StructReport) {
	ds := checkShape(s)
	if HasErrors(ds) {
		return ds, nil
	}
	var rep *relstruct.StructReport
	switch s.Type {
	case "rbd":
		ds = append(ds, checkRBDMeasures(s.RBD)...)
		ds = append(ds, CheckRBD(s.RBD)...)
	case "faulttree":
		ds = append(ds, checkFTMeasures(s.FaultTree)...)
		ds = append(ds, CheckFaultTree(s.FaultTree)...)
	case "ctmc":
		ds = append(ds, checkCTMCMeasures(s.CTMC)...)
		var cds []Diagnostic
		cds, rep = CheckCTMC(s.CTMC)
		ds = append(ds, cds...)
	case "relgraph":
		ds = append(ds, checkRGMeasures(s.RelGraph)...)
		ds = append(ds, CheckRelGraph(s.RelGraph)...)
	case "spn":
		ds = append(ds, checkSPNMeasures(s.SPN)...)
		ds = append(ds, CheckSPN(s.SPN)...)
	}
	Sort(ds)
	return ds, rep
}

// checkShape validates the type/section pairing of the document.
func checkShape(s *modelio.Spec) []Diagnostic {
	var present bool
	switch s.Type {
	case "":
		return errf(nil, CodeSpecType, "type", "document does not declare a model type")
	case "rbd":
		present = s.RBD != nil
	case "faulttree":
		present = s.FaultTree != nil
	case "ctmc":
		present = s.CTMC != nil
	case "relgraph":
		present = s.RelGraph != nil
	case "spn":
		present = s.SPN != nil
	default:
		return errf(nil, CodeSpecType, "type", "unknown model type %q", s.Type)
	}
	if !present {
		return errf(nil, CodeSpecSection, s.Type, "type %q without a matching section", s.Type)
	}
	return nil
}

// measurePath locates the i-th entry of a section's measure list.
func measurePath(i int) string {
	return fmt.Sprintf("measures[%d]", i)
}

func checkRBDMeasures(spec *modelio.RBDSpec) []Diagnostic {
	var ds []Diagnostic
	for i, m := range spec.Measures {
		switch m {
		case "availability", "mttf", "mincuts":
		case "reliability", "importance":
			if spec.Time <= 0 {
				ds = errf(ds, CodeSpecField, measurePath(i), "measure %q needs a positive time field", m)
			}
		default:
			ds = errf(ds, CodeSpecMeasure, measurePath(i), "unknown rbd measure %q", m)
		}
	}
	return ds
}

func checkFTMeasures(spec *modelio.FaultTreeSpec) []Diagnostic {
	var ds []Diagnostic
	for i, m := range spec.Measures {
		switch m {
		case "top", "mincuts", "rare-event", "importance", "mttf":
		case "topAt":
			if spec.Time <= 0 {
				ds = errf(ds, CodeSpecField, measurePath(i), "measure %q needs a positive time field", m)
			}
		default:
			ds = errf(ds, CodeSpecMeasure, measurePath(i), "unknown faulttree measure %q", m)
		}
	}
	return ds
}

func checkCTMCMeasures(spec *modelio.CTMCSpec) []Diagnostic {
	var ds []Diagnostic
	for i, m := range spec.Measures {
		switch m {
		case "steadystate":
		case "availability":
			if len(spec.UpStates) == 0 {
				ds = errf(ds, CodeSpecField, measurePath(i), "measure %q needs upStates", m)
			}
		case "transient":
			if spec.Initial == "" || spec.Time <= 0 {
				ds = errf(ds, CodeSpecField, measurePath(i), "measure %q needs initial and a positive time", m)
			}
		case "mtta":
			if spec.Initial == "" || len(spec.Absorbing) == 0 {
				ds = errf(ds, CodeSpecField, measurePath(i), "measure %q needs initial and absorbing states", m)
			}
		default:
			ds = errf(ds, CodeSpecMeasure, measurePath(i), "unknown ctmc measure %q", m)
		}
	}
	switch spec.Solver {
	case "", "auto", "gth", "sor", "chain":
	default:
		ds = errf(ds, CodeSpecField, "ctmc.solver", "unknown solver %q (want auto, gth, sor, or chain)", spec.Solver)
	}
	switch spec.Lump {
	case "", "auto", "off":
	default:
		ds = errf(ds, CodeSpecField, "ctmc.lump", "unknown lump mode %q (want auto or off)", spec.Lump)
	}
	if spec.SolverOmega != 0 && (spec.SolverOmega <= 0 || spec.SolverOmega >= 2) { //numvet:allow float-eq zero means unset; option-default sentinel
		ds = errf(ds, CodeSpecField, "ctmc.solverOmega", "SOR relaxation factor %g outside (0,2)", spec.SolverOmega)
	}
	return ds
}

func checkRGMeasures(spec *modelio.RelGraphSpec) []Diagnostic {
	var ds []Diagnostic
	for i, m := range spec.Measures {
		switch m {
		case "reliability", "minpaths", "mincuts":
		default:
			ds = errf(ds, CodeSpecMeasure, measurePath(i), "unknown relgraph measure %q", m)
		}
	}
	return ds
}

func checkSPNMeasures(spec *modelio.SPNSpec) []Diagnostic {
	places := map[string]bool{}
	for _, p := range spec.Places {
		places[p.Name] = true
	}
	trans := map[string]bool{}
	for _, t := range spec.Transitions {
		trans[t.Name] = true
	}
	conds := map[string]bool{}
	var ds []Diagnostic
	for i, c := range spec.Conditions {
		path := fmt.Sprintf("spn.conditions[%d]", i)
		if !places[c.Place] {
			ds = errf(ds, CodeSpecField, path, "condition %q references undeclared place %q", c.Name, c.Place)
		}
		switch c.Op {
		case ">=", "<=", "==":
		default:
			ds = errf(ds, CodeSpecField, path, "condition %q op %q is not one of >=, <=, ==", c.Name, c.Op)
		}
		conds[c.Name] = true
	}
	for i, m := range spec.Measures {
		if m == "states" {
			continue
		}
		kind, name, _ := strings.Cut(m, ":")
		switch {
		case kind == "throughput" && name != "":
			if !trans[name] {
				ds = errf(ds, CodeSpecField, measurePath(i), "throughput measure references undeclared transition %q", name)
			}
		case kind == "tokens" && name != "":
			if !places[name] {
				ds = errf(ds, CodeSpecField, measurePath(i), "tokens measure references undeclared place %q", name)
			}
		case kind == "prob" && name != "":
			if !conds[name] {
				ds = errf(ds, CodeSpecField, measurePath(i), "prob measure references undeclared condition %q", name)
			}
		default:
			ds = errf(ds, CodeSpecMeasure, measurePath(i), "unknown spn measure %q", m)
		}
	}
	return ds
}
