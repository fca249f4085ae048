package guard

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestCtxNilAndLive(t *testing.T) {
	if err := Ctx(nil, "op", 3, 0.5); err != nil {
		t.Fatalf("nil context: %v", err)
	}
	if err := Ctx(context.Background(), "op", 3, 0.5); err != nil {
		t.Fatalf("live context: %v", err)
	}
}

func TestCtxCanceledUnwraps(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Ctx(ctx, "linalg.sor", 42, 1e-3)
	if err == nil {
		t.Fatal("want error from canceled context")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("errors.Is(err, ErrCanceled) = false: %v", err)
	}
	if errors.Is(err, ErrDeadline) {
		t.Errorf("canceled error must not match ErrDeadline: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false: %v", err)
	}
	var ie *InterruptError
	if !errors.As(err, &ie) {
		t.Fatalf("errors.As *InterruptError = false: %v", err)
	}
	if ie.Op != "linalg.sor" || ie.Iterations != 42 || ie.LastResidual != 1e-3 {
		t.Errorf("partial progress lost: %+v", ie)
	}
	if got := Classify(err); got != ClassCanceled {
		t.Errorf("Classify = %q, want canceled", got)
	}
}

func TestCtxDeadlineUnwraps(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	err := Ctx(ctx, "markov.transient", 7, 0.25)
	if !errors.Is(err, ErrDeadline) {
		t.Errorf("errors.Is(err, ErrDeadline) = false: %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("errors.Is(err, context.DeadlineExceeded) = false: %v", err)
	}
	if got := Classify(err); got != ClassDeadline {
		t.Errorf("Classify = %q, want deadline", got)
	}
	if !strings.Contains(err.Error(), "deadline exceeded after 7 iterations") {
		t.Errorf("message lost progress: %v", err)
	}
}

type classedErr struct{ class string }

func (e classedErr) Error() string        { return "classed: " + e.class }
func (e classedErr) FailureClass() string { return e.class }

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want FailureClass
	}{
		{nil, ClassNone},
		{classedErr{"no-convergence"}, ClassNoConvergence},
		{classedErr{"divergence"}, ClassDivergence},
		{&BudgetError{Op: "bdd", Budget: 10, Actual: 11}, ClassBudget},
		{&NumericalError{Op: "x", Detail: "NaN"}, ClassNumerical},
		{&InternalError{Op: "solve", Value: "boom"}, ClassInternal},
		{errors.New("plain"), ClassError},
		{context.DeadlineExceeded, ClassDeadline},
		{context.Canceled, ClassCanceled},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %q, want %q", c.err, got, c.want)
		}
	}
	for _, c := range []struct {
		class FailureClass
		want  bool
	}{
		{ClassNoConvergence, true}, {ClassDivergence, true}, {ClassNumerical, true},
		{ClassBudget, true}, {ClassCanceled, false}, {ClassDeadline, false},
		{ClassInternal, false}, {ClassError, false},
	} {
		if got := c.class.Escalatable(); got != c.want {
			t.Errorf("%q.Escalatable() = %v, want %v", c.class, got, c.want)
		}
	}
}

func TestRecoverPanicConvertsToInternalError(t *testing.T) {
	tr := obs.NewTrace("root")
	rec := tr.Span("modelio.solve")
	boundary := func() (err error) {
		defer RecoverPanic(&err, rec, "modelio.solve")
		inner := rec.Span("linalg.sor")
		_ = inner
		panic("index out of range")
	}
	err := boundary()
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("want *InternalError, got %v", err)
	}
	if ie.Value != "index out of range" {
		t.Errorf("panic value = %v", ie.Value)
	}
	if len(ie.Stack) == 0 {
		t.Error("stack not captured")
	}
	found := false
	for _, name := range ie.SpanPath {
		if name == "linalg.sor" {
			found = true
		}
	}
	if !found {
		t.Errorf("span path %v misses the active solver span", ie.SpanPath)
	}
	if Classify(err) != ClassInternal {
		t.Errorf("Classify = %q", Classify(err))
	}
}

func TestRecoverPanicNoopOnSuccess(t *testing.T) {
	f := func() (err error) {
		defer RecoverPanic(&err, nil, "op")
		return nil
	}
	if err := f(); err != nil {
		t.Fatalf("clean return overwritten: %v", err)
	}
}

func TestRailsModes(t *testing.T) {
	bad := []float64{0.5, math.NaN(), 0.5}
	if err := (Rails{Mode: Off}).CheckProbVector("op", bad); err != nil {
		t.Errorf("Off mode errored: %v", err)
	}
	if err := (Rails{Mode: Warn}).CheckProbVector("op", bad); err != nil {
		t.Errorf("Warn mode errored: %v", err)
	}
	err := (Rails{Mode: Strict}).CheckProbVector("op", bad)
	var ne *NumericalError
	if !errors.As(err, &ne) {
		t.Fatalf("Strict mode: want *NumericalError, got %v", err)
	}
	if Classify(err) != ClassNumerical {
		t.Errorf("Classify = %q", Classify(err))
	}

	// Warn mode records the violation on the trace.
	tr := obs.NewTrace("t")
	sp := tr.Span("solve")
	if err := (Rails{Mode: Warn, Recorder: sp}).CheckProbVector("op", []float64{0.7, 0.7}); err != nil {
		t.Fatalf("warn returned error: %v", err)
	}
	sp.End()
	root := tr.Finish()
	if _, ok := root.Children[0].Attr("guard_warning"); !ok {
		t.Error("warn-mode violation not recorded on span")
	}
}

func TestRailsChecks(t *testing.T) {
	r := Rails{Mode: Strict}
	if err := r.CheckProbVector("op", []float64{0.25, 0.75}); err != nil {
		t.Errorf("valid distribution rejected: %v", err)
	}
	if err := r.CheckProbVector("op", []float64{0.9, 0.3}); err == nil {
		t.Error("excess mass accepted")
	}
	if err := r.CheckProbVector("op", []float64{1.5, -0.5}); err == nil {
		t.Error("out-of-range entries accepted")
	}
	if err := r.CheckUnitInterval("op", 0.3); err != nil {
		t.Errorf("valid scalar rejected: %v", err)
	}
	if err := r.CheckUnitInterval("op", 1.5); err == nil {
		t.Error("1.5 accepted as probability")
	}
	if err := r.CheckFiniteScalar("op", math.Inf(1)); err == nil {
		t.Error("Inf accepted as finite scalar")
	}
}

func TestLogSpace(t *testing.T) {
	// logsumexp of log(0.25)+log(0.25) = log(0.5).
	got := LogSumExp([]float64{math.Log(0.25), math.Log(0.25)})
	if math.Abs(got-math.Log(0.5)) > 1e-12 {
		t.Errorf("LogSumExp = %g, want log 0.5", got)
	}
	if !math.IsInf(LogSumExp(nil), -1) {
		t.Error("empty LogSumExp not -Inf")
	}
	// Values that underflow linear space survive in log space:
	// 1000 cuts of probability 1e-400 each (exactly 0 in float64) gives
	// the bound 1e-397, representable only as a log.
	logs := make([]float64, 1000)
	for i := range logs {
		logs[i] = -400 * math.Ln10
	}
	if math.Exp(logs[0]) != 0 { //numvet:allow float-eq asserting exact underflow to zero
		t.Fatal("per-cut probability should underflow the linear domain")
	}
	lb := LogRareEvent(logs)
	want := math.Log(1000) - 400*math.Ln10
	if math.Abs(lb-want) > 1e-9 {
		t.Errorf("LogRareEvent = %g, want %g", lb, want)
	}
	// Cap at log(1) for non-rare cuts.
	if got := LogRareEvent([]float64{math.Log(0.9), math.Log(0.9)}); got != 0 {
		t.Errorf("LogRareEvent cap = %g, want 0", got)
	}
	if _, err := LogProb(1.5); !errors.Is(err, ErrBadLogProb) {
		t.Error("LogProb accepted 1.5")
	}
	if lp, err := LogProb(0); err != nil || !math.IsInf(lp, -1) {
		t.Errorf("LogProb(0) = %g, %v", lp, err)
	}
	if lc, err := LogCutProb([]float64{0.5, 0.5}); err != nil || math.Abs(lc-math.Log(0.25)) > 1e-12 {
		t.Errorf("LogCutProb = %g, %v", lc, err)
	}
}
