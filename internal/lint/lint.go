package lint

import (
	"fmt"
	"sort"
	"strings"
)

// Severity ranks a diagnostic.
type Severity int

const (
	// SevInfo marks advisory output that needs no action.
	SevInfo Severity = iota
	// SevWarning marks a construct that solves but is likely not what the
	// modeler meant (shared subtrees, unreachable states, …).
	SevWarning
	// SevError marks a model that is structurally ill-formed; solving it
	// would panic, diverge, or silently produce garbage.
	SevError
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	switch s {
	case SevError:
		return "error"
	case SevWarning:
		return "warning"
	default:
		return "info"
	}
}

// Diagnostic is one finding of the model linter.
type Diagnostic struct {
	// Code is the stable machine-readable identifier (see doc.go).
	Code string `json:"code"`
	// Severity ranks the finding.
	Severity Severity `json:"severity"`
	// Path locates the offending element in the model document, in
	// JSON-ish dotted form, e.g. "ctmc.transitions[3].rate".
	Path string `json:"path"`
	// Msg explains the problem and, where possible, the fix.
	Msg string `json:"msg"`
}

// String formats the diagnostic as "severity CODE path: msg".
func (d Diagnostic) String() string {
	if d.Path == "" {
		return fmt.Sprintf("%s %s: %s", d.Severity, d.Code, d.Msg)
	}
	return fmt.Sprintf("%s %s %s: %s", d.Severity, d.Code, d.Path, d.Msg)
}

// errf appends an error diagnostic.
func errf(ds []Diagnostic, code, path, format string, args ...any) []Diagnostic {
	return append(ds, Diagnostic{Code: code, Severity: SevError, Path: path, Msg: fmt.Sprintf(format, args...)})
}

// warnf appends a warning diagnostic.
func warnf(ds []Diagnostic, code, path, format string, args ...any) []Diagnostic {
	return append(ds, Diagnostic{Code: code, Severity: SevWarning, Path: path, Msg: fmt.Sprintf(format, args...)})
}

// infof appends an info diagnostic.
func infof(ds []Diagnostic, code, path, format string, args ...any) []Diagnostic {
	return append(ds, Diagnostic{Code: code, Severity: SevInfo, Path: path, Msg: fmt.Sprintf(format, args...)})
}

// HasErrors reports whether any diagnostic is an error.
func HasErrors(ds []Diagnostic) bool {
	for _, d := range ds {
		if d.Severity == SevError {
			return true
		}
	}
	return false
}

// Sort orders diagnostics by code, then path: the order relcli lint and
// relcli analyze print. The sort is stable, and every check emits in an
// order fixed by its input, so diagnostics that tie keep that order.
func Sort(ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		if ds[i].Code != ds[j].Code {
			return ds[i].Code < ds[j].Code
		}
		return ds[i].Path < ds[j].Path
	})
}

// sortedKeys returns m's keys in increasing order, for checks that
// report once per map entry.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Error aggregates lint errors into a single error value; the solvers'
// pre-flight hook returns it when a model fails to lint.
type Error struct {
	Diags []Diagnostic
}

// Error implements the error interface, listing every diagnostic.
func (e *Error) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "model failed lint with %d problem(s):", len(e.Diags))
	for _, d := range e.Diags {
		sb.WriteString("\n  ")
		sb.WriteString(d.String())
	}
	return sb.String()
}
