package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bdd"
	"repro/internal/dist"
	"repro/internal/failpoint"
	"repro/internal/faulttree"
	"repro/internal/guard"
	"repro/internal/hier"
	"repro/internal/jobs"
	"repro/internal/linalg"
	"repro/internal/lint"
	"repro/internal/markov"
	"repro/internal/metrics"
	"repro/internal/modelio"
	"repro/internal/obs"
	"repro/internal/rbd"
	"repro/internal/relgraph"
	"repro/internal/spn"
)

// docFaults are documents whose solve fails for a fault in the document
// itself. Each names the model package's sentinel the failure matches,
// the error text the solve gave before the solve boundary classified it
// (relcli -json, byte for byte), and the lint code that flags it ("" where
// lint has none).
var docFaults = []struct {
	name, lint, text string
	fault            error
	doc              string
}{
	{"ctmc-rate", lint.CodeCTMCBadRate, `markov: rate must be positive and finite: "a" -> "b" rate -1`, markov.ErrBadRate,
		`{"type":"ctmc","ctmc":{"transitions":[{"from":"a","to":"b","rate":-1},{"from":"b","to":"a","rate":1}],"upStates":["a"],"measures":["availability"]}}`},
	{"ctmc-self-loop", lint.CodeCTMCSelfLoop, `markov: self-transition "a" has no effect in a CTMC`, markov.ErrSelfLoop,
		`{"type":"ctmc","ctmc":{"transitions":[{"from":"a","to":"b","rate":1},{"from":"b","to":"a","rate":1},{"from":"a","to":"a","rate":1}],"upStates":["a"],"measures":["availability"]}}`},
	{"ctmc-unknown-up", lint.CodeCTMCUnknownState, `markov: unknown state: "zzz"`, markov.ErrUnknownState,
		`{"type":"ctmc","ctmc":{"transitions":[{"from":"a","to":"b","rate":1},{"from":"b","to":"a","rate":1}],"upStates":["zzz"],"measures":["availability"]}}`},
	{"ctmc-unknown-initial", lint.CodeCTMCUnknownState, `markov: unknown state: "zzz"`, markov.ErrUnknownState,
		`{"type":"ctmc","ctmc":{"transitions":[{"from":"a","to":"b","rate":1},{"from":"b","to":"a","rate":1}],"initial":"zzz","time":1,"measures":["transient"]}}`},
	{"ctmc-unknown-absorbing", lint.CodeCTMCUnknownState, `markov: unknown state: "zzz"`, markov.ErrUnknownState,
		`{"type":"ctmc","ctmc":{"transitions":[{"from":"a","to":"b","rate":1},{"from":"b","to":"a","rate":1}],"initial":"a","absorbing":["zzz"],"measures":["mtta"]}}`},
	{"ctmc-reducible", lint.CodeCTMCReducible, `markov steady state: gth: state 3 has no transitions to lower-indexed states; generator reducible`, linalg.ErrReducible,
		`{"type":"ctmc","ctmc":{"transitions":[{"from":"a","to":"b","rate":1},{"from":"c","to":"d","rate":1}],"measures":["steadystate"]}}`},
	{"rbd-exponential", lint.CodeDistBadParam, `component "a" lifetime: exponential rate -1: dist: invalid parameter`, dist.ErrBadParam,
		`{"type":"rbd","rbd":{"components":[{"name":"a","lifetime":{"kind":"exponential","rate":-1}}],"structure":{"comp":"a"},"measures":["mttf"]}}`},
	{"rbd-weibull", lint.CodeDistBadParam, `component "a" lifetime: weibull shape=-1 scale=1: dist: invalid parameter`, dist.ErrBadParam,
		`{"type":"rbd","rbd":{"components":[{"name":"a","lifetime":{"kind":"weibull","shape":-1,"scale":1}}],"structure":{"comp":"a"},"measures":["mttf"]}}`},
	{"rbd-kofn", lint.CodeRBDArity, `rbd: malformed block structure: k=5 with 1 children`, rbd.ErrNotBuildable,
		`{"type":"rbd","rbd":{"components":[{"name":"a","lifetime":{"kind":"exponential","rate":1}}],"structure":{"op":"kofn","k":5,"children":[{"comp":"a"}]},"measures":["mttf"]}}`},
	{"rbd-no-repair", lint.CodeRBDNoRepair, `rbd: component lacks a repair distribution: "a"`, rbd.ErrNoRepair,
		`{"type":"rbd","rbd":{"components":[{"name":"a","lifetime":{"kind":"exponential","rate":1}}],"structure":{"comp":"a"},"measures":["availability"]}}`},
	{"ft-prob", lint.CodeFTProbRange, `bdd prob: p[0]=2 outside [0,1]`, bdd.ErrBadProb,
		`{"type":"faulttree","faulttree":{"events":[{"name":"e","prob":2},{"name":"f","prob":0.1}],"top":{"op":"or","children":[{"event":"e"},{"event":"f"}]},"measures":["top"]}}`},
	{"ft-atleast", lint.CodeFTArity, `faulttree: malformed tree: k=3 with 1 children`, faulttree.ErrMalformed,
		`{"type":"faulttree","faulttree":{"events":[{"name":"e","prob":0.1}],"top":{"op":"atleast","k":3,"children":[{"event":"e"}]},"measures":["top"]}}`},
	{"ft-no-lifetime", lint.CodeFTNoLifetime, `faulttree: event lacks a lifetime distribution: "e"`, faulttree.ErrNoLifetime,
		`{"type":"faulttree","faulttree":{"events":[{"name":"e","prob":0.1}],"top":{"event":"e"},"time":10,"measures":["topAt"]}}`},
	{"rg-rel", lint.CodeRGRelRange, `relgraph: invalid edge: reliability 2 outside [0,1]`, relgraph.ErrBadEdge,
		`{"type":"relgraph","relgraph":{"edges":[{"name":"x","from":"s","to":"t","rel":2}],"source":"s","target":"t","measures":["reliability"]}}`},
	{"rg-target", lint.CodeRGBadTerminal, `relgraph: node not in graph: "zz"`, relgraph.ErrNoSuchNode,
		`{"type":"relgraph","relgraph":{"edges":[{"name":"x","from":"s","to":"t","rel":0.9}],"source":"s","target":"zz","measures":["reliability"]}}`},
	// The rest of the solve boundary's input sentinels.
	{"ctmc-empty", lint.CodeCTMCNoStates, `markov: chain has no states`, markov.ErrEmptyChain,
		`{"type":"ctmc","ctmc":{"transitions":[],"measures":["steadystate"]}}`},
	{"ctmc-sor-absorbing", lint.CodeCTMCAbsorbing, `markov steady state: sor: state 3 has no outgoing rate; generator reducible`, linalg.ErrReducible,
		`{"type":"ctmc","ctmc":{"transitions":[{"from":"a","to":"b","rate":1},{"from":"b","to":"c","rate":1},{"from":"c","to":"a","rate":1},{"from":"a","to":"d","rate":1}],"measures":["steadystate"],"solver":"sor","lump":"off"}}`},
	{"ft-not-rare-event", lint.CodeFTNonCoherent, `faulttree: operation requires a coherent tree (no NOT gates)`, faulttree.ErrNonCoherent,
		`{"type":"faulttree","faulttree":{"events":[{"name":"e","prob":0.1},{"name":"f","prob":0.2}],"top":{"op":"and","children":[{"event":"e"},{"op":"not","children":[{"event":"f"}]}]},"measures":["rare-event"]}}`},
	{"spn-place", lint.CodePNUnknownPlace, `spn: unknown place: "zz"`, spn.ErrUnknownPlace,
		`{"type":"spn","spn":{"places":[{"name":"p","tokens":1}],"transitions":[{"name":"t","kind":"timed","rate":1}],"arcs":[{"kind":"input","place":"zz","transition":"t"}],"measures":["throughput:t"]}}`},
	{"spn-transition", lint.CodePNUnknownTransition, `spn: unknown transition: "zz"`, spn.ErrUnknownTransition,
		`{"type":"spn","spn":{"places":[{"name":"p","tokens":1}],"transitions":[{"name":"t","kind":"timed","rate":1}],"arcs":[{"kind":"input","place":"p","transition":"zz"}],"measures":["throughput:t"]}}`},
	{"spn-duplicate", lint.CodePNDuplicateName, `spn: duplicate name: place "p"`, spn.ErrDuplicate,
		`{"type":"spn","spn":{"places":[{"name":"p","tokens":1},{"name":"p","tokens":0}],"transitions":[{"name":"t","kind":"timed","rate":1}],"arcs":[{"kind":"input","place":"p","transition":"t"}],"measures":["throughput:t"]}}`},
	{"spn-vanishing-loop", "", `spn: cycle among vanishing markings (marking [0 1])`, spn.ErrVanishingLoop,
		`{"type":"spn","spn":{"places":[{"name":"p","tokens":1},{"name":"q","tokens":0}],"transitions":[{"name":"t1","kind":"immediate","rate":1},{"name":"t2","kind":"immediate","rate":1}],"arcs":[{"kind":"input","place":"p","transition":"t1"},{"kind":"output","place":"q","transition":"t1"},{"kind":"input","place":"q","transition":"t2"},{"kind":"output","place":"p","transition":"t2"}],"measures":["throughput:t1"]}}`},
	{"spn-tokens", lint.CodePNNegativeTokens, `spn: place "p" initial tokens -1 negative`, spn.ErrNegativeTokens,
		`{"type":"spn","spn":{"places":[{"name":"p","tokens":-1}],"transitions":[{"name":"t","kind":"timed","rate":1}],"arcs":[{"kind":"input","place":"p","transition":"t"}],"measures":["throughput:t"]}}`},
	{"spn-rate", lint.CodePNBadRate, `spn: transition "t" rate -1 invalid`, spn.ErrBadRate,
		`{"type":"spn","spn":{"places":[{"name":"p","tokens":1}],"transitions":[{"name":"t","kind":"timed","rate":-1}],"arcs":[{"kind":"input","place":"p","transition":"t"}],"measures":["throughput:t"]}}`},
	{"spn-weight", lint.CodePNBadRate, `spn: immediate "t" weight -1 invalid`, spn.ErrBadRate,
		`{"type":"spn","spn":{"places":[{"name":"p","tokens":1},{"name":"q","tokens":0}],"transitions":[{"name":"t","kind":"immediate","rate":-1},{"name":"u","kind":"timed","rate":1}],"arcs":[{"kind":"input","place":"p","transition":"t"},{"kind":"output","place":"q","transition":"t"},{"kind":"input","place":"q","transition":"u"},{"kind":"output","place":"p","transition":"u"}],"measures":["throughput:u"]}}`},
	{"spn-multiplicity", lint.CodePNBadMult, `spn: arc multiplicity -1 must be >= 1`, spn.ErrBadMultiplicity,
		`{"type":"spn","spn":{"places":[{"name":"p","tokens":1}],"transitions":[{"name":"t","kind":"timed","rate":1}],"arcs":[{"kind":"input","place":"p","transition":"t","mult":-1}],"measures":["throughput:t"]}}`},
	{"ctmc-mtta-uncertain", "", `markov absorbing: transient block singular (absorption not certain from every state?): lusolve: singular matrix at column 1`, markov.ErrAbsorptionUncertain,
		`{"type":"ctmc","ctmc":{"transitions":[{"from":"a","to":"b","rate":1},{"from":"b","to":"a","rate":1},{"from":"a","to":"c","rate":1}],"initial":"a","absorbing":["b"],"measures":["mtta"]}}`},
	{"ft-mttf-infinite", "", `faulttree: system survives forever with probability 1; MTTF infinite`, faulttree.ErrInfiniteMTTF,
		`{"type":"faulttree","faulttree":{"events":[{"name":"e","lifetime":{"kind":"exponential","rate":1}},{"name":"f","lifetime":{"kind":"exponential","rate":2}}],"top":{"op":"and","children":[{"event":"e"},{"op":"not","children":[{"event":"f"}]}]},"measures":["mttf"]}}`},
	{"ctmc-two-rings", lint.CodeCTMCReducible, `markov steady state: 2 closed classes, so the long-run distribution is not unique; generator reducible`, linalg.ErrReducible,
		twoRings(350, "")},
	{"ctmc-two-rings-sor", lint.CodeCTMCReducible, `markov steady state: 2 closed classes, so the long-run distribution is not unique; generator reducible`, linalg.ErrReducible,
		twoRings(350, "sor")},
}

// twoRings is a ctmc document of two closed rings of n states each, with
// a steady-state measure and the given solver ("" for auto). Its
// long-run distribution depends on where the chain starts; at 2n = 700
// states auto solves it by SOR, which, like an explicit "sor", would
// answer with the start vector's split, so only the closed-class check
// rejects it.
func twoRings(n int, solver string) string {
	var b strings.Builder
	b.WriteString(`{"type":"ctmc","ctmc":{"transitions":[`)
	for ring := 0; ring < 2; ring++ {
		for i := 0; i < n; i++ {
			if ring > 0 || i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"from":"r%d-%d","to":"r%d-%d","rate":1}`, ring, i, ring, (i+1)%n)
		}
	}
	b.WriteString(`],"measures":["steadystate"]`)
	if solver != "" {
		fmt.Fprintf(&b, `,"solver":%q`, solver)
	}
	b.WriteString(`}}`)
	return b.String()
}

// TestDocumentFaultsAnswer422: a document fault is the client's, so
// /solve answers 422 bad-spec with the solve's own error text, relcli
// prints that same text, and lint reports the fault as an error.
func TestDocumentFaultsAnswer422(t *testing.T) {
	mux := mustServeMux(t, serveConfig{Registry: metrics.NewRegistry()})
	for _, d := range docFaults {
		w := postJSON(t, mux, d.doc)
		resp := decodeSolve(t, w)
		if w.Code != http.StatusUnprocessableEntity || resp.Code != "bad-spec" || resp.Error != d.text {
			t.Errorf("%s: %d %s %q, want 422 bad-spec %q", d.name, w.Code, resp.Code, resp.Error, d.text)
		}
		var out bytes.Buffer
		if err := run([]string{"-json"}, strings.NewReader(d.doc), &out); err == nil || err.Error() != d.text {
			t.Errorf("%s: relcli -json: %v, want %q", d.name, err, d.text)
		}
		if d.lint == "" {
			continue
		}
		if _, ds, _ := lint.CheckDocument(strings.NewReader(d.doc)); !hasError(ds, d.lint) {
			t.Errorf("%s: lint reports %v, want an error %s", d.name, ds, d.lint)
		}
	}
}

func hasError(ds []lint.Diagnostic, code string) bool {
	for _, d := range ds {
		if d.Code == code && d.Severity == lint.SevError {
			return true
		}
	}
	return false
}

// TestDocumentFaultsSpareTheBreaker: five of each faulty document in a
// row open no breaker and burn no SLO budget, and models/repairfarm.json
// still solves afterwards.
func TestDocumentFaultsSpareTheBreaker(t *testing.T) {
	s, mux, err := newSolveServer(serveConfig{Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.stopBackground)
	for _, d := range docFaults {
		for i := 0; i < 5; i++ {
			if w := postJSON(t, mux, d.doc); w.Code != http.StatusUnprocessableEntity {
				t.Fatalf("%s #%d: status %d: %s", d.name, i, w.Code, w.Body.String())
			}
		}
	}
	if st := s.brk.snapshot(); len(st) != 0 {
		t.Errorf("breakers after document faults: %v, want all closed", st)
	}
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, sample := range []string{"relserve_breaker_open_total{", `verdict="bad"`} {
		if strings.Contains(w.Body.String(), sample) {
			t.Errorf("/metrics has a %s sample after document faults", sample)
		}
	}
	if w := postModel(t, mux, filepath.Join("..", "..", "models", "repairfarm.json"), ""); w.Code != http.StatusOK {
		t.Errorf("repairfarm after document faults: status %d: %s", w.Code, w.Body.String())
	}
}

// TestCanceledSolvesSpareTheBreaker: a client that goes away tells the
// breaker nothing about the solver, however often it happens.
func TestCanceledSolvesSpareTheBreaker(t *testing.T) {
	s, mux, err := newSolveServer(serveConfig{Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.stopBackground)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 5; i++ {
		req := httptest.NewRequest(http.MethodPost, "/solve", strings.NewReader(ctmcPlain)).WithContext(ctx)
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, req)
		if resp := decodeSolve(t, w); w.Code != http.StatusServiceUnavailable || resp.Code != "canceled" {
			t.Fatalf("canceled solve #%d: %d %s, want 503 canceled", i, w.Code, resp.Code)
		}
	}
	if st := s.brk.snapshot(); len(st) != 0 {
		t.Errorf("breakers after canceled solves: %v, want all closed", st)
	}
}

// TestHalfOpenProbeIgnoresDocumentFault: a 422 answered to the half-open
// probe releases the probe and leaves the breaker half-open; the next
// request probes, and its success closes the breaker.
func TestHalfOpenProbeIgnoresDocumentFault(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	s, mux, err := newSolveServer(serveConfig{
		Registry:         metrics.NewRegistry(),
		BreakerThreshold: 1, BreakerCooldown: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.stopBackground)
	if err := failpoint.Arm("modelio.build", "error"); err != nil {
		t.Fatal(err)
	}
	if w := postJSON(t, mux, ctmcPlain); w.Code != http.StatusInternalServerError {
		t.Fatalf("faulted solve: status %d, want 500", w.Code)
	}
	failpoint.Reset()
	time.Sleep(60 * time.Millisecond)
	if w := postJSON(t, mux, docFaults[0].doc); w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("probe with a faulty document: status %d, want 422", w.Code)
	}
	if st := s.brk.snapshot()["ctmc"]; st != "half-open" {
		t.Fatalf("breaker after a 422 probe = %q, want half-open", st)
	}
	if w := postJSON(t, mux, ctmcPlain); w.Code != http.StatusOK {
		t.Fatalf("second probe: status %d: %s", w.Code, w.Body.String())
	}
	if st := s.brk.snapshot()["ctmc"]; st != "" {
		t.Errorf("breaker after a successful probe = %q, want closed (omitted)", st)
	}
}

// The four mappers outcomeOf replaced, kept as its oracle: errorCode,
// solveErrorStatus and solveOutcome read a /solve failure, jobError a
// /jobs one.

func errorCode(err error) string {
	var ferr *failpoint.Error
	var ierr *guard.InternalError
	switch {
	case err == nil:
		return ""
	case errors.Is(err, guard.ErrDeadline):
		return "deadline"
	case errors.Is(err, guard.ErrCanceled):
		return "canceled"
	case errors.As(err, &ferr):
		return "injected"
	case errors.Is(err, modelio.ErrBadSpec):
		return "bad-spec"
	case errors.As(err, &ierr):
		return "internal"
	default:
		return "internal"
	}
}

func solveOutcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, guard.ErrDeadline):
		return "deadline"
	case errors.Is(err, guard.ErrCanceled):
		return "canceled"
	default:
		return "error"
	}
}

func solveErrorStatus(err error) int {
	switch {
	case errors.Is(err, guard.ErrDeadline):
		return http.StatusGatewayTimeout
	case errors.Is(err, guard.ErrCanceled):
		return http.StatusServiceUnavailable
	case errors.Is(err, modelio.ErrBadSpec):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

func jobError(err error) (int, any) {
	status, code := http.StatusInternalServerError, "internal"
	switch {
	case errors.Is(err, jobs.ErrBadSpec):
		status, code = http.StatusBadRequest, "bad-spec"
	case errors.Is(err, jobs.ErrUnknownJob):
		status, code = http.StatusNotFound, "unknown-job"
	case errors.Is(err, jobs.ErrDraining):
		status, code = http.StatusServiceUnavailable, "draining"
	case errors.Is(err, jobs.ErrTerminal):
		status, code = http.StatusConflict, "terminal"
	}
	return status, jobResponse{Error: err.Error(), Code: code}
}

// oracleOutcome is what the four mappers made of err: jobError for the
// jobs sentinels (only the /jobs routes see them), the /solve mappers
// for everything else. The breaker heard a failure wherever /solve
// answered 5xx; now it hears nothing from a cancellation, and nothing
// from a /jobs request, which never reaches a breaker.
func oracleOutcome(err error) outcome {
	o := outcome{status: solveErrorStatus(err), code: errorCode(err), trace: solveOutcome(err)}
	for _, s := range []error{jobs.ErrBadSpec, jobs.ErrUnknownJob, jobs.ErrDraining, jobs.ErrTerminal} {
		if errors.Is(err, s) {
			status, body := jobError(err)
			return outcome{status: status, code: body.(jobResponse).Code, trace: o.trace}
		}
	}
	if o.status >= http.StatusInternalServerError && o.code != "canceled" {
		o.breaker = heardFailure
	}
	return o
}

// TestOutcomeMatchesTheFourMappers checks outcomeOf against the mappers
// it replaced on every typed error the serve path can see, bare and
// wrapped, and as a fallback chain returns it when its one step fails
// with it (RunChain wraps an escalatable failure in *guard.ExhaustedError
// and returns the others as they are). The one change: a document fault,
// which the mappers read as 500 internal, is 422 bad-spec and never
// reaches the breaker.
func TestOutcomeMatchesTheFourMappers(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, stop := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer stop()
	base := []error{
		&failpoint.Error{Name: "modelio.build"},
		&failpoint.Error{Name: "linalg.gth", Msg: "wrecked"},
		&guard.InternalError{Op: "serve.solve", Value: "boom"},
		guard.Ctx(canceled, "linalg.sor", 3, 0.5),
		guard.Ctx(expired, "linalg.sor", 3, 0.5),
		&guard.BudgetError{Op: "faulttree.bdd", Budget: 10, Actual: 20},
		&guard.NumericalError{Op: "modelio.ctmc.steadystate", Detail: "lost mass"},
		&linalg.ErrNoConvergence{Iter: 3, Residual: 0.5},
		&linalg.ErrDiverged{Iter: 3, Delta: math.Inf(1)},
		&hier.NoConvergenceError{Iterations: 7, LastDelta: 0.25},
		&hier.NonFiniteError{Sweep: 2, Variable: "x", Value: math.NaN()},
		fmt.Errorf("%w: unknown type %q", modelio.ErrBadSpec, "x"),
		fmt.Errorf("%w: samples must be positive, got 0", jobs.ErrBadSpec),
		jobs.ErrUnknownJob, jobs.ErrDraining, jobs.ErrTerminal,
		errors.New("something broke"),
	}
	var corpus []error
	for _, err := range base {
		_, _, chained := guard.RunChain(context.Background(), obs.Nop(), "steadystate",
			guard.Step[int]{Name: "only", Run: func(context.Context, obs.Recorder) (int, error) { return 0, err }})
		corpus = append(corpus, err, chained)
	}
	for _, err := range corpus {
		for _, e := range []error{err, fmt.Errorf("relcli: %w", err)} {
			if got, want := outcomeOf(e), oracleOutcome(e); got != want {
				t.Errorf("%T %v: got %+v, want %+v", err, e, got, want)
			}
		}
	}
	if got := outcomeOf(nil); got != (outcome{http.StatusOK, "", "ok", heardSuccess}) {
		t.Errorf("success: got %+v", got)
	}

	fault := outcome{http.StatusUnprocessableEntity, "bad-spec", "error", heardNothing}
	for _, d := range docFaults {
		spec, err := modelio.ParseBytes([]byte(d.doc))
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		_, err = modelio.SolveWithOptions(spec, modelio.SolveOptions{})
		if !errors.Is(err, d.fault) || !errors.Is(err, modelio.ErrBadSpec) || err.Error() != d.text {
			t.Errorf("%s: solve returned %v, want %q matching %v and modelio.ErrBadSpec", d.name, err, d.text, d.fault)
			continue
		}
		// Before the boundary classified it, the error carried only the
		// model package's sentinel.
		raw := fmt.Errorf("%w: %s", d.fault, d.name)
		if got := oracleOutcome(raw); got != (outcome{http.StatusInternalServerError, "internal", "error", heardFailure}) {
			t.Errorf("%s: the mappers read %+v, want 500 internal", d.name, got)
		}
		for _, e := range []error{err, fmt.Errorf("relcli: %w", err)} {
			if got := outcomeOf(e); got != fault {
				t.Errorf("%s: got %+v, want %+v", d.name, got, fault)
			}
		}
	}
}
