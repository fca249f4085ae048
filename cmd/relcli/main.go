// Command relcli solves reliability/availability models described in JSON.
//
// Usage:
//
//	relcli [solve] -model system.json [-json] [-preflight]
//	relcli solve [-trace] [-trace-json] [-metrics] [-pprof addr] model.json
//	relcli solve [-timeout 30s] [-rails strict|warn|off] model.json
//	relcli solve [-log text|json] [-log-level debug] model.json
//	relcli serve [-addr 127.0.0.1:8080] [-log json] [-max-inflight 8] [-timeout 30s]
//	relcli serve [-jobs-dir dir] [-slo objectives.json] [-wide-events file]
//	relcli serve [-profile-dir dir] [-failpoints 'name:spec;name:spec']
//	relcli chaos [-requests 200] [-swarm 8] [-seed 42] [-failpoints schedule]
//	cat system.json | relcli [-json]
//	relcli lint [-json] model.json [model.json ...]
//	relcli analyze [-json] model.json [model.json ...]
//
// The input format is documented in internal/modelio and README.md; it
// covers reliability block diagrams, fault trees, CTMCs, reliability
// graphs, and stochastic Petri nets with per-model measure selection.
//
// The optional solve subcommand is the default action spelled out; it
// additionally accepts the model path as a positional argument. The
// observability flags hang off it: -trace prints an indented solver span
// tree to stderr, -trace-json replaces the stdout report with a JSON
// document {"results": …, "trace": …} carrying the nested spans and
// per-iteration residuals, -metrics prints a one-line trace summary plus
// the relscope metric registry in Prometheus text format to stderr, -log
// emits structured slog events per span (and per iteration at -log-level
// debug) once the solve returns, and -pprof addr serves net/http/pprof,
// expvar, and /metrics for the duration of the solve.
//
// The serve subcommand turns the same pipeline into a long-running HTTP
// service: POST /solve takes a model document and returns {model,
// results} (add ?trace=1 for the span tree), GET /metrics exposes the
// relscope registry for scraping, GET /healthz reports liveness as JSON
// (uptime, in-flight solves, trace-store occupancy), and /debug/pprof/
// plus /debug/vars mirror the standalone debug server. It drains
// gracefully on SIGINT/SIGTERM (healthz reports "draining" with 503
// while requests finish); solves still running after -grace are
// canceled through the guard context plumbing.
//
// The serve layer is crash-only (see the README's Resilience section):
// a bounded admission queue sheds load with 429 and capacity-timeouts
// with 503 — both with Retry-After and the model hash — per-model-class
// circuit breakers short-circuit to degraded bounds-only answers for
// rbd/fault-tree models, and per-request panic isolation turns crashes
// into typed 500s. The chaos subcommand boots this stack with a seeded
// failpoint schedule (internal/failpoint; serve arms one with
// -failpoints) and drives a client swarm through it, asserting typed
// outcomes, finite results, breaker open/re-close, and goroutine
// hygiene; it prints a JSON report and exits nonzero on any violation.
//
// Every completed /solve and /analyze request is retained in a bounded
// in-memory trace store (the newest 256) behind the embedded reldash
// dashboard: GET /ui lists retained traces with filters and metric
// highlights, /ui/trace/{id} shows one solve's span tree with
// residual-convergence sparklines, and the JSON APIs /api/traces,
// /api/traces/{id}, /api/metrics, /api/bench (the committed baseline
// named by -bench), and /api/summary back it. See internal/reldash.
//
// Serve's flags are deployment settings: address, paths, log format,
// capacity and deadlines. The admission queue (2x -max-inflight deep,
// 1 s wait), the breakers (5 consecutive failures, 15 s cooldown), the
// 8 MiB body limit and the sampling cadences are fixed.
//
// The lint subcommand statically checks model documents without solving
// them, printing one diagnostic per line; it exits nonzero when any
// document has an error-severity finding. See internal/lint for the
// diagnostic code table.
//
// The analyze subcommand prints the static structural report of ctmc
// documents (SCC condensation, stiffness, lumpability, solver hint — see
// internal/relstruct) alongside the lint findings, which read that same
// report; -json emits the full StructReport. Non-ctmc documents are reported as skipped. The serve
// subcommand exposes the same analysis as POST /analyze.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"time"

	"repro/internal/guard"
	"repro/internal/lint"
	"repro/internal/metrics"
	"repro/internal/modelio"
	"repro/internal/obs"
)

// stderr is the diagnostic stream; a variable so tests can capture it.
var stderr io.Writer = os.Stderr

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "relcli:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	if len(args) > 0 && args[0] == "lint" {
		return runLint(args[1:], stdin, stdout)
	}
	if len(args) > 0 && args[0] == "analyze" {
		return runAnalyze(args[1:], stdin, stdout)
	}
	if len(args) > 0 && args[0] == "serve" {
		return runServe(args[1:], stdout)
	}
	if len(args) > 0 && args[0] == "chaos" {
		return runChaos(args[1:], stdout)
	}
	if len(args) > 0 && args[0] == "solve" {
		args = args[1:]
	}
	fs := flag.NewFlagSet("relcli", flag.ContinueOnError)
	modelPath := fs.String("model", "", "path to the JSON model (default: stdin)")
	asJSON := fs.Bool("json", false, "emit results as JSON instead of text")
	asDOT := fs.Bool("dot", false, "emit the model structure as Graphviz DOT (ctmc/spn)")
	preflight := fs.Bool("preflight", false, "lint the model and refuse to solve on errors")
	traceText := fs.Bool("trace", false, "print the solver span tree to stderr")
	traceJSON := fs.Bool("trace-json", false, "emit {results, trace} as JSON on stdout")
	metricsFlag := fs.Bool("metrics", false, "print a trace summary and the relscope metric registry (Prometheus text) to stderr")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof and expvar on this address while solving")
	timeout := fs.Duration("timeout", 0, "abort the solve after this duration (0 disables)")
	rails := fs.String("rails", "", "numerical guard-rail strictness: strict, warn (default), or off")
	logFormat := fs.String("log", "", "emit structured solve logs on stderr: text or json")
	logLevel := fs.String("log-level", "info", "log level for -log (debug adds per-iteration convergence events)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" && fs.NArg() > 0 {
		*modelPath = fs.Arg(0)
	}
	in := stdin
	if *modelPath != "" {
		f, err := os.Open(*modelPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	spec, err := modelio.Parse(in)
	if err != nil {
		return err
	}
	if *asDOT {
		return modelio.WriteDOT(spec, stdout)
	}
	if *pprofAddr != "" {
		srv, err := obs.ServeDebug(*pprofAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "relcli: pprof/expvar at http://%s/debug/pprof/\n", srv.Addr)
	}
	opts := modelio.SolveOptions{
		Preflight: *preflight,
		Timeout:   *timeout,
		Rails:     guard.Strictness(*rails),
	}
	rootName := spec.Name
	if rootName == "" {
		rootName = "solve"
	}
	var logger *slog.Logger
	if *logFormat != "" {
		if logger, err = newSlogLogger(*logFormat, *logLevel, stderr); err != nil {
			return err
		}
	}
	// The trace is the one record of the solve: the metrics and the slog
	// events are read off the finished span tree.
	var tr *obs.Trace
	if *traceText || *traceJSON || *metricsFlag || logger != nil {
		tr = obs.NewTrace(rootName)
		opts.Recorder = tr
	}
	results, err := modelio.SolveWithOptions(spec, opts)
	if tr != nil {
		// Emit whatever was traced even when the solve failed — the partial
		// trace is exactly what diagnoses a non-converging solver.
		root := tr.Finish()
		if *metricsFlag {
			// The same registry backs /metrics in relcli serve and the debug
			// server, so the one-shot dump and the scrape endpoint share both
			// the numbers and the formatting path.
			obs.NewSolveMetrics(metrics.Default()).Observe(rootName, root)
		}
		if logger != nil {
			obs.LogSpans(logger, root)
		}
		if *traceText {
			if werr := tr.WriteText(stderr); werr != nil {
				return werr
			}
		}
		if *metricsFlag {
			s := tr.Summary()
			fmt.Fprintf(stderr, "relcli: spans=%d iterations=%d wall=%s solver=%s\n",
				s.Spans, s.Iterations, time.Duration(s.WallNS), s.Solver)
			if werr := metrics.Default().WritePrometheus(stderr); werr != nil {
				return werr
			}
		}
	}
	if err != nil {
		return err
	}
	if *traceJSON {
		doc := struct {
			Results []modelio.Result `json:"results"`
			Trace   *obs.Span        `json:"trace"`
		}{Results: results, Trace: tr.Finish()}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(results)
	}
	_, err = io.WriteString(stdout, modelio.Render(spec.Name, results))
	return err
}

// lintFileReport is one document's findings in the -json output.
type lintFileReport struct {
	File        string            `json:"file"`
	Diagnostics []lint.Diagnostic `json:"diagnostics"`
}

// runLint implements the lint subcommand: statically check one or more
// model documents (or stdin when no files are given).
func runLint(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("relcli lint", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "emit diagnostics as JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	files := fs.Args()

	var reports []lintFileReport
	if len(files) == 0 {
		_, ds, _ := modelio.LintDocument(stdin)
		reports = append(reports, lintFileReport{File: "<stdin>", Diagnostics: ds})
	}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		_, ds, _ := modelio.LintDocument(f)
		f.Close()
		reports = append(reports, lintFileReport{File: path, Diagnostics: ds})
	}

	bad := 0
	for _, r := range reports {
		if lint.HasErrors(r.Diagnostics) {
			bad++
		}
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			return err
		}
	} else {
		total := 0
		for _, r := range reports {
			for _, d := range r.Diagnostics {
				fmt.Fprintf(stdout, "%s: %s\n", r.File, d)
				total++
			}
		}
		if total == 0 {
			fmt.Fprintf(stdout, "%d model(s) clean\n", len(reports))
		}
	}
	if bad > 0 {
		return fmt.Errorf("lint: %d of %d model(s) have errors", bad, len(reports))
	}
	return nil
}
