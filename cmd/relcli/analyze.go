package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/lint"
	"repro/internal/modelio"
	"repro/internal/relstruct"
)

// analyzeFileReport is one document's structural analysis in the
// `relcli analyze` output.
type analyzeFileReport struct {
	File string `json:"file"`
	// Skipped explains why no report was produced (non-ctmc model types
	// have no transition graph to analyze). Skipping is not an error.
	Skipped string `json:"skipped,omitempty"`
	// Report is the static structural analysis of the chain.
	Report *relstruct.StructReport `json:"report,omitempty"`
	// Diagnostics are the full lint findings for the document (the STR
	// codes plus everything else the linter reports), in lint.Sort order:
	// by code, then path.
	Diagnostics []lint.Diagnostic `json:"diagnostics"`
}

// runAnalyze implements the analyze subcommand: statically analyze the
// structure of one or more ctmc documents (or stdin) without solving
// them. Exits nonzero when any document has an error-severity finding.
func runAnalyze(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("relcli analyze", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "emit the structural reports as JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	files := fs.Args()

	var reports []analyzeFileReport
	if len(files) == 0 {
		rep, _ := analyzeDocument("<stdin>", stdin)
		reports = append(reports, rep)
	}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		rep, _ := analyzeDocument(path, f)
		reports = append(reports, rep)
		f.Close()
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			return err
		}
	} else {
		for _, r := range reports {
			writeAnalyzeText(stdout, r)
		}
	}
	bad := 0
	for _, r := range reports {
		if lint.HasErrors(r.Diagnostics) {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("analyze: %d of %d model(s) have errors", bad, len(reports))
	}
	return nil
}

// analyzeDocument lints one document and, for ctmc models, attaches the
// structural report the linter read. It also returns the decoded spec
// (nil when the document did not decode) so callers can name the model
// without parsing it again.
func analyzeDocument(name string, r io.Reader) (analyzeFileReport, *modelio.Spec) {
	spec, ds, rep := modelio.LintDocument(r)
	out := analyzeFileReport{File: name, Report: rep, Diagnostics: ds}
	switch {
	case spec == nil:
		out.Skipped = "document did not parse"
	case spec.Type != "ctmc" || spec.CTMC == nil:
		out.Skipped = fmt.Sprintf("structural analysis applies to ctmc models (type %q)", spec.Type)
	case rep == nil:
		// The linter analyzes every chain that has a state.
		out.Skipped = fmt.Sprintf("analysis failed: %v", relstruct.ErrEmpty)
	}
	return out, spec
}

// writeAnalyzeText renders one report for terminals.
func writeAnalyzeText(w io.Writer, r analyzeFileReport) {
	if r.Skipped != "" {
		fmt.Fprintf(w, "%s: skipped: %s\n", r.File, r.Skipped)
	} else if rep := r.Report; rep != nil {
		shape := "reducible"
		if rep.Irreducible {
			shape = "irreducible"
		}
		fmt.Fprintf(w, "%s: %d states, %d transitions, %s (%d recurrent class(es), %d transient state(s), %d component(s))\n",
			r.File, rep.States, rep.Transitions, shape,
			rep.RecurrentClasses, rep.TransientStates, rep.Components)
		if len(rep.AbsorbingStates) > 0 {
			fmt.Fprintf(w, "%s: absorbing: %s\n", r.File, strings.Join(rep.AbsorbingStates, ", "))
		}
		if rep.Stiffness.Ratio > 0 {
			fmt.Fprintf(w, "%s: rates %.3g..%.3g (spread %.3g, within-class %.3g, stiff=%v)\n",
				r.File, rep.Stiffness.RateMin, rep.Stiffness.RateMax,
				rep.Stiffness.Ratio, rep.Stiffness.MaxClassRatio, rep.Stiffness.Stiff)
		}
		if rep.Lumping.Lumpable {
			fmt.Fprintf(w, "%s: lumpable: %d states -> %d blocks (%.3gx reduction)\n",
				r.File, rep.States, rep.Lumping.Blocks, rep.Lumping.Ratio)
		}
		if rep.Hint.Method != "" || rep.Hint.Reduce != "" {
			fmt.Fprintf(w, "%s: hint: %s\n", r.File, hintLine(rep.Hint))
		}
	}
	for _, d := range r.Diagnostics {
		fmt.Fprintf(w, "%s: %s\n", r.File, d)
	}
}

// hintLine renders the solver hint for the text report.
func hintLine(h relstruct.Hint) string {
	var parts []string
	if h.Method != "" {
		parts = append(parts, "method "+h.Method)
	}
	if h.Reduce != "" {
		parts = append(parts, "reduce "+h.Reduce)
	}
	if h.Reason != "" {
		parts = append(parts, "("+h.Reason+")")
	}
	return strings.Join(parts, " ")
}
