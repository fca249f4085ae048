// Command relperf is the repository's benchmark. It builds cmd/relcli
// from the checkout, drives `relcli serve` over loopback TCP (or the
// experiment suite in process) with inputs made from a seed, checks every
// output, and reports end-to-end metrics, or with -trace 1 per-layer
// metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage:
//
//	relperf -workload serve-large -seed 1 -seconds 15 -trace 0 [-out r.json]
//	relperf -seed 1 -out all.json        # every workload, untraced and traced
//	relperf compare -base a.json,b.json -change c.json,d.json
//
// See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// workloads lists every workload in run order.
var workloads = []string{"serve-fixtures", "serve-large", "sweep", "suite"}

// config is one benchmark invocation.
type config struct {
	root   string        // repository checkout holding go.mod and models/
	bin    string        // build and scratch directory
	seed   int64         // every input is derived from it
	window time.Duration // measured time per run
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// jobSamples is the size of one sweep job.
	jobSamples int
	// suiteIDs restricts the suite workload to these experiments (nil
	// runs all of them); the smoke test uses it to stay short.
	suiteIDs []string
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a percentile, where one applies.
	N int `json:"n,omitempty"`
}

// runResult is the outcome of one (workload, trace) run.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Extra holds informational numbers outside BENCHMARK.json: p99
	// with its sample count, samples per second, the error rate.
	Extra  map[string]metric `json:"extra,omitempty"`
	Errors []string          `json:"errors,omitempty"`

	mu sync.Mutex // guards Failed and Errors while load clients run
}

// fail records a failed verification; load clients call it concurrently.
func (r *runResult) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Failed++
	if len(r.Errors) < 20 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

func (r *runResult) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *runResult) extra(name string, v float64, unit string, n int) {
	if r.Extra == nil {
		r.Extra = map[string]metric{}
	}
	r.Extra[name] = metric{Value: v, Unit: unit, N: n}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("relperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: serve-fixtures, serve-large, sweep, suite, or all")
	seed := fs.Int64("seed", 1, "seed every input is derived from")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from the traced run instead of end-to-end metrics")
	out := fs.String("out", "", "write the results as JSON here (traced runs also write <out>.trace.json)")
	root := fs.String("root", ".", "repository checkout to build and read models from")
	bin := fs.String("bin", ".bench_build", "directory for built binaries and scratch files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "relperf: -trace must be 0 or 1 and -seconds positive")
		return 2
	}
	cfg := config{
		root: *root, bin: *bin, seed: *seed,
		window:     time.Duration(*seconds * float64(time.Second)),
		setups:     7,
		jobSamples: 50000,
	}
	if err := cfg.check(); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	type job struct {
		workload string
		trace    bool
	}
	var jobs []job
	switch *workload {
	case "all":
		for _, w := range workloads {
			jobs = append(jobs, job{w, false}, job{w, true})
		}
	default:
		if !known(*workload) {
			fmt.Fprintf(stderr, "relperf: unknown workload %q\n", *workload)
			return 2
		}
		jobs = []job{{*workload, *trace == 1}}
	}

	var results []*runResult
	var spans []spanRec
	for _, j := range jobs {
		res, sp, err := runOne(cfg, j.workload, j.trace)
		if err != nil {
			fmt.Fprintf(stderr, "relperf: %s: %v\n", j.workload, err)
			return 1
		}
		results = append(results, res)
		spans = append(spans, sp...)
		for _, e := range res.Errors {
			fmt.Fprintf(stderr, "relperf: %s: verification failed: %s\n", j.workload, e)
		}
		printLines(stdout, res)
	}
	if *out != "" {
		if err := writeResults(*out, results, spans); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	final := summarize(results, len(jobs) > 1)
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

func known(w string) bool {
	for _, k := range workloads {
		if k == w {
			return true
		}
	}
	return false
}

// check fails fast when root is not a checkout of this repository: the
// benchmark builds the program from source and cannot run without it.
func (c *config) check() error {
	for _, p := range []string{"go.mod", "cmd/relcli", "models/repairfarm.json"} {
		if _, err := os.Stat(filepath.Join(c.root, p)); err != nil {
			return fmt.Errorf("relperf: %s is not a repository checkout: %w", c.root, err)
		}
	}
	abs, err := filepath.Abs(c.bin)
	if err != nil {
		return err
	}
	c.bin = abs
	return os.MkdirAll(c.bin, 0o755)
}

// runOne runs one workload, untraced or traced, in a fresh scratch
// directory that is removed afterwards.
func runOne(cfg config, workload string, traced bool) (*runResult, []spanRec, error) {
	dir, err := os.MkdirTemp(cfg.bin, "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	res := &runResult{Workload: workload, Seed: cfg.seed, Trace: traced, Metrics: map[string]metric{}}
	if traced {
		spans, err := tracedRun(cfg, dir, workload, res)
		res.Correct = err == nil && res.Failed == 0
		return res, spans, err
	}
	switch workload {
	case "serve-fixtures":
		err = serveFixtures(cfg, dir, res)
	case "serve-large":
		err = serveLarge(cfg, dir, res)
	case "sweep":
		err = sweep(cfg, dir, res)
	case "suite":
		err = suite(cfg, res)
	}
	res.Correct = err == nil && res.Failed == 0
	if res.Attempted > 0 {
		res.extra("error_rate", float64(res.Failed)/float64(res.Attempted), "ratio", int(res.Attempted))
	}
	return res, nil, err
}

// printLines writes one `workload metric value unit` line per metric.
func printLines(w io.Writer, r *runResult) {
	for _, set := range []map[string]metric{r.Metrics, r.Extra} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := set[n]
			if m.N > 0 {
				fmt.Fprintf(w, "%s %s %.6g %s (n=%d)\n", r.Workload, n, m.Value, m.Unit, m.N)
			} else {
				fmt.Fprintf(w, "%s %s %.6g %s\n", r.Workload, n, m.Value, m.Unit)
			}
		}
	}
}

// finalLine is the last line of standard output.
type finalLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// summarize folds the runs into the final line; with several runs each
// metric name is prefixed by its workload.
func summarize(results []*runResult, prefixed bool) finalLine {
	f := finalLine{Correct: true, Metrics: map[string]metric{}}
	for _, r := range results {
		f.Correct = f.Correct && r.Correct && r.Failed == 0
		f.Attempted += r.Attempted
		f.Failed += r.Failed
		for n, m := range r.Metrics {
			if prefixed {
				n = r.Workload + "." + n
			}
			f.Metrics[n] = metric{Value: m.Value, Unit: m.Unit}
		}
	}
	for _, m := range f.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			f.Correct = false
		}
	}
	return f
}

// resultFile is the -out document.
type resultFile struct {
	Runs []*runResult `json:"runs"`
}

func writeResults(path string, results []*runResult, spans []spanRec) error {
	data, err := json.MarshalIndent(resultFile{Runs: results}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if len(spans) == 0 {
		return nil
	}
	data, err = json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path+".trace.json", data, 0o644)
}

// readResults loads the runs of one -out file.
func readResults(path string) ([]*runResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return nil, errors.New(path + ": no runs")
	}
	return f.Runs, nil
}
