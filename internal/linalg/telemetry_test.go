package linalg

import (
	"errors"
	"math"
	"testing"

	"repro/internal/obs"
)

// threeStateGenerator builds the generator of the canonical 3-state
// availability CTMC (2 up → 1 up → 0 up with shared repair):
//
//	2up --2λ--> 1up --λ--> 0up,  repairs at μ back up the chain.
func threeStateGenerator(t *testing.T, lam, mu float64) *CSR {
	t.Helper()
	b := NewBuilder(3, 3)
	add := func(i, j int, v float64) {
		t.Helper()
		if err := b.Add(i, j, v); err != nil {
			t.Fatal(err)
		}
	}
	add(0, 1, 2*lam)
	add(0, 0, -2*lam)
	add(1, 2, lam)
	add(1, 0, mu)
	add(1, 1, -(lam + mu))
	add(2, 1, mu)
	add(2, 2, -mu)
	return b.Build()
}

// uniformizedDTMC returns P = I + Q/q for the 3-state chain, a stochastic
// matrix suitable for power iteration.
func uniformizedDTMC(t *testing.T, q *CSR) *CSR {
	t.Helper()
	n := q.Rows()
	var maxExit float64
	for i := 0; i < n; i++ {
		if d := -q.At(i, i); d > maxExit {
			maxExit = d
		}
	}
	rate := maxExit * 1.05
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		diag := 1.0
		q.RowRange(i, func(col int, val float64) {
			if col == i {
				diag += val / rate
				return
			}
			if err := b.Add(i, col, val/rate); err != nil {
				t.Fatal(err)
			}
		})
		if err := b.Add(i, i, diag); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// assertIterTelemetry checks the telemetry contract shared by the
// iterative solvers: one record per sweep, 1-based consecutive iteration
// numbers, count matching the solver's return value, and residuals
// decreasing to below tolerance (monotone up to a small grace factor for
// early transients).
func assertIterTelemetry(t *testing.T, iters []obs.IterPoint, wantCount int, tol float64) {
	t.Helper()
	if len(iters) != wantCount {
		t.Fatalf("recorded %d iterations, solver reported %d", len(iters), wantCount)
	}
	for i, p := range iters {
		if p.N != i+1 {
			t.Fatalf("iteration %d recorded as n=%d", i+1, p.N)
		}
		if math.IsNaN(p.Residual) || p.Residual < 0 {
			t.Fatalf("iteration %d residual %g", p.N, p.Residual)
		}
	}
	last := iters[len(iters)-1].Residual
	if last >= tol {
		t.Errorf("final residual %g not below tol %g", last, tol)
	}
	// Geometric convergence: residuals must not grow from one sweep to the
	// next (beyond round-off) once the iteration is underway.
	for i := 1; i < len(iters); i++ {
		if iters[i].Residual > iters[i-1].Residual*(1+1e-9) {
			t.Errorf("residual not monotone: iter %d %g -> iter %d %g",
				iters[i-1].N, iters[i-1].Residual, iters[i].N, iters[i].Residual)
		}
	}
}

func findSpan(t *testing.T, root *obs.Span, name string) *obs.Span {
	t.Helper()
	var found *obs.Span
	root.Walk(func(s *obs.Span) {
		if s.Name == name && found == nil {
			found = s
		}
	})
	if found == nil {
		t.Fatalf("no span %q in trace", name)
	}
	return found
}

func TestSORTelemetryThreeStateCTMC(t *testing.T) {
	q := threeStateGenerator(t, 0.01, 1.0)
	tr := obs.NewTrace("test")
	tol := 1e-12
	pi, n, err := SORSteadyState(q, SOROptions{Tol: tol, Recorder: tr})
	if err != nil {
		t.Fatal(err)
	}
	if n < 2 {
		t.Fatalf("suspiciously few sweeps: %d", n)
	}
	sp := findSpan(t, tr.Finish(), "linalg.sor")
	assertIterTelemetry(t, sp.Iters, n, tol)
	if v, ok := sp.Attr("solver"); !ok || v != "sor" {
		t.Errorf("solver attr = %v", v)
	}
	if v, ok := sp.Attr("iterations"); !ok || v.(int64) != int64(n) {
		t.Errorf("iterations attr = %v, want %d", v, n)
	}
	if v, ok := sp.Attr("spectral_radius_est"); ok {
		if rho := v.(float64); !math.IsNaN(rho) && (rho < 0 || rho > 1.5) {
			t.Errorf("spectral radius estimate %g implausible", rho)
		}
	} else {
		t.Error("spectral_radius_est attr missing")
	}
	// Telemetry must not perturb the solution.
	quiet, _, err := SORSteadyState(q, SOROptions{Tol: tol})
	if err != nil {
		t.Fatal(err)
	}
	for i := range pi {
		if pi[i] != quiet[i] { //numvet:allow float-eq identical code paths must produce identical bits
			t.Fatalf("recorded solve diverges from quiet solve at %d: %g vs %g", i, pi[i], quiet[i])
		}
	}
}

func TestPowerTelemetryThreeStateCTMC(t *testing.T) {
	q := threeStateGenerator(t, 0.01, 1.0)
	p := uniformizedDTMC(t, q)
	tr := obs.NewTrace("test")
	tol := 1e-12
	pi, n, err := PowerIterationOpts(p, PowerOptions{Tol: tol, Recorder: tr})
	if err != nil {
		t.Fatal(err)
	}
	sp := findSpan(t, tr.Finish(), "linalg.power")
	assertIterTelemetry(t, sp.Iters, n, tol)
	if s := Sum(pi); math.Abs(s-1) > 1e-12 {
		t.Errorf("stationary vector sums to %g", s)
	}
	// The embedded stationary vector must match SOR on the generator.
	sor, _, err := SORSteadyState(q, SOROptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range pi {
		if math.Abs(pi[i]-sor[i]) > 1e-8 {
			t.Errorf("pi[%d] = %g (power) vs %g (sor)", i, pi[i], sor[i])
		}
	}
}

func TestPowerMaxIterSurfacesTypedError(t *testing.T) {
	q := threeStateGenerator(t, 0.5, 1.0)
	p := uniformizedDTMC(t, q)
	_, n, err := PowerIterationOpts(p, PowerOptions{Tol: 1e-15, MaxIter: 3})
	var nc *ErrNoConvergence
	if !errors.As(err, &nc) {
		t.Fatalf("want *ErrNoConvergence, got %v", err)
	}
	if n != 3 || nc.Iter != 3 {
		t.Errorf("iteration counts: returned %d, error %d, want 3", n, nc.Iter)
	}
}

// Benchmarks backing the zero-overhead claim: the no-op recorder path
// must cost the same as the pre-telemetry solver.
func benchSOR(b *testing.B, opts SOROptions) {
	b.Helper()
	asm := NewBuilder(200, 200)
	for i := 0; i < 200; i++ {
		var exit float64
		if i > 0 {
			_ = asm.Add(i, i-1, 1.0)
			exit += 1.0
		}
		if i < 199 {
			_ = asm.Add(i, i+1, 0.5)
			exit += 0.5
		}
		_ = asm.Add(i, i, -exit)
	}
	q := asm.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SORSteadyState(q, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSORQuiet(b *testing.B) { benchSOR(b, SOROptions{}) }

func BenchmarkSORNopRecorder(b *testing.B) { benchSOR(b, SOROptions{Recorder: obs.Nop()}) }

func BenchmarkSORTraced(b *testing.B) {
	benchSOR(b, SOROptions{Recorder: obs.NewTrace("bench")})
}
