// Command numvet is a repo-specific static analyzer for numerical code.
// It type-checks the requested packages from source (standard library
// tooling only — go/parser and go/types with a module-aware importer) and
// reports classes of problems that plague reliability solvers:
//
//   - float-eq: == or != between floating-point values. Solver results
//     come out of iterative algorithms and quadrature; exact comparison
//     is almost always a latent bug. Compare within a stated tolerance,
//     or add an allow comment giving the reason.
//   - panic: panic() in a library (non-main) package outside a Must*
//     convenience constructor. Library code must return errors so a
//     service embedding the solvers can reject bad models gracefully.
//   - ignored-err: an expression statement discarding the error returned
//     by one of this module's own APIs.
//   - time-sleep: time.Sleep in library code; waits must go through a
//     timer in a select so a context can interrupt them.
//   - unbounded-loop: a condition-less for-loop in library code with no
//     structural bound.
//   - goroutine-no-ctx: a go statement in library code with no
//     context.Context anywhere in the launched call — arguments, callee,
//     or closure capture. Such goroutines cannot be canceled.
//   - defer-in-loop: a defer directly inside a loop body; the deferred
//     calls pile up until the function returns, which in a solver's hot
//     loop means unbounded memory and late cleanup.
//   - slog-corr: a log/slog call inside an HTTP handler (any function —
//     or enclosing function — taking *http.Request) in a main package
//     without a "corr" field. Serve-path logs must carry the request's
//     correlation ID so every line joins to its trace and wide event.
//   - unused-export: a function or method under internal/, exported or
//     not, that no non-test code in the module references and no other
//     package's tests do either. References are read from the whole
//     module (commands, examples, nested modules, every test file),
//     whatever packages are named; methods that satisfy an interface and
//     init are exempt. Such code reaches no binary: delete it, or keep it
//     with an allow comment that names the check or the inventory row it
//     serves.
//
// A finding can be acknowledged with a same-line comment:
//
//	if a == b { //numvet:allow float-eq exact equality short-circuits
//
// Usage:
//
//	numvet ./internal/...
//
// Exits 1 when findings remain, making it suitable for scripts/check.sh.
package main

import (
	"fmt"
	"os"
	"strings"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "numvet:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// run executes the analysis and returns the process exit code.
func run(patterns []string, out *os.File) (int, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		return 0, err
	}
	modRoot, modPath, err := findModule(cwd)
	if err != nil {
		return 0, err
	}
	findings, err := vetDirs(modRoot, modPath, patterns)
	if err != nil {
		return 0, err
	}
	for _, f := range findings {
		fmt.Fprintln(out, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(out, "numvet: %d finding(s)\n", len(findings))
		return 1, nil
	}
	return 0, nil
}

// vetDirs expands the patterns against the module root and analyzes every
// matched package.
func vetDirs(modRoot, modPath string, patterns []string) ([]Finding, error) {
	dirs, err := expandPatterns(modRoot, patterns)
	if err != nil {
		return nil, err
	}
	l := newLoader(modRoot, modPath)
	var refs *references
	var findings []Finding
	for _, dir := range dirs {
		rel, err := importPathFor(modRoot, modPath, dir)
		if err != nil {
			return nil, err
		}
		mp, err := l.load(rel)
		if err != nil {
			return nil, err
		}
		fs := vetPackage(l.fset, mp.files, mp.info, modPath)
		if strings.HasPrefix(rel+"/", modPath+"/internal/") {
			if refs == nil {
				if refs, err = l.scanReferences(); err != nil {
					return nil, err
				}
			}
			fs = append(fs, refs.unusedExports(l.fset, mp)...)
			sortFindings(fs)
		}
		findings = append(findings, fs...)
	}
	return findings, nil
}

// importPathFor maps a directory under the module root to its import path.
func importPathFor(modRoot, modPath, dir string) (string, error) {
	rel, err := relSlash(modRoot, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return modPath, nil
	}
	return modPath + "/" + rel, nil
}
