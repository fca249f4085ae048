package guard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/obs"
)

func step(name string, fn func(context.Context) (float64, error)) Step[float64] {
	return Step[float64]{Name: name, Run: func(ctx context.Context, _ obs.Recorder) (float64, error) {
		return fn(ctx)
	}}
}

func TestChainFirstStepWins(t *testing.T) {
	v, report, err := RunChain(context.Background(), nil, "ss",
		step("sor", func(context.Context) (float64, error) { return 42, nil }),
		step("gth", func(context.Context) (float64, error) {
			t.Error("second step ran after first succeeded")
			return 0, nil
		}),
	)
	if err != nil || v != 42 {
		t.Fatalf("got %v, %v", v, err)
	}
	if report.Winner != "sor" || len(report.Attempts) != 1 {
		t.Errorf("report = %+v", report)
	}
}

func TestChainEscalatesOnConvergenceFailure(t *testing.T) {
	tr := obs.NewTrace("solve")
	v, report, err := RunChain[float64](context.Background(), tr, "ss",
		step("sor", func(context.Context) (float64, error) {
			return 0, classedErr{"no-convergence"}
		}),
		step("gth", func(context.Context) (float64, error) { return 7, nil }),
	)
	if err != nil || v != 7 {
		t.Fatalf("got %v, %v", v, err)
	}
	if report.Winner != "gth" {
		t.Errorf("winner = %q", report.Winner)
	}
	if len(report.Attempts) != 2 || report.Attempts[0].Class != ClassNoConvergence {
		t.Errorf("attempts = %+v", report.Attempts)
	}
	// Both attempts and the winner are visible in the trace.
	root := tr.Finish()
	var chain *obs.Span
	root.Walk(func(s *obs.Span) {
		if s.Name == "guard.chain" {
			chain = s
		}
	})
	if chain == nil {
		t.Fatal("no guard.chain span recorded")
	}
	if w, _ := chain.Attr("winner"); w != "gth" {
		t.Errorf("chain winner attr = %v", w)
	}
	if len(chain.Children) != 2 {
		t.Fatalf("chain children = %d, want 2 attempts", len(chain.Children))
	}
	if fc, _ := chain.Children[0].Attr("failure_class"); fc != "no-convergence" {
		t.Errorf("first attempt failure_class = %v", fc)
	}
}

func TestChainAbortsOnStructuralError(t *testing.T) {
	structural := errors.New("markov: unknown state")
	ran := false
	_, report, err := RunChain(context.Background(), nil, "ss",
		step("sor", func(context.Context) (float64, error) { return 0, structural }),
		step("gth", func(context.Context) (float64, error) { ran = true; return 0, nil }),
	)
	if !errors.Is(err, structural) {
		t.Fatalf("structural error not surfaced: %v", err)
	}
	if ran {
		t.Error("chain escalated past a structural error")
	}
	if report.Winner != "" {
		t.Errorf("winner = %q", report.Winner)
	}
}

func TestChainAbortsOnCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := false
	_, _, err := RunChain(ctx, nil, "ss",
		step("sor", func(ctx context.Context) (float64, error) {
			cancel()
			return 0, Ctx(ctx, "sor", 5, 0.1)
		}),
		step("gth", func(context.Context) (float64, error) { ran = true; return 0, nil }),
	)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if ran {
		t.Error("chain kept solving after cancellation")
	}
}

func TestChainExhausted(t *testing.T) {
	last := classedErr{"divergence"}
	_, report, err := RunChain(context.Background(), nil, "ss",
		step("sor", func(context.Context) (float64, error) { return 0, classedErr{"no-convergence"} }),
		step("gth", func(context.Context) (float64, error) { return 0, last }),
	)
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("want *ExhaustedError, got %v", err)
	}
	if !errors.Is(err, error(last)) {
		t.Errorf("last attempt error not unwrapped: %v", err)
	}
	if len(report.Attempts) != 2 || report.Winner != "" {
		t.Errorf("report = %+v", report)
	}
}

// TestChainStressRace is the -race fallback-chain stress test wired into
// scripts/check.sh: many goroutines run chains that share one Trace
// recorder, mixing successes, escalations, and cancellations, so
// the race detector sees every lock interaction in guard + obs.
func TestChainStressRace(t *testing.T) {
	tr := obs.NewTrace("stress")
	const goroutines = 16
	const runs = 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				ctx := context.Background()
				var cancel context.CancelFunc
				if i%5 == 4 {
					ctx, cancel = context.WithCancel(ctx)
					cancel() // exercise the abort path
				}
				mode := (g + i) % 3
				v, _, err := RunChain(ctx, tr, fmt.Sprintf("c%d", g),
					Step[int]{Name: "fast", Run: func(ctx context.Context, rec obs.Recorder) (int, error) {
						if err := Ctx(ctx, "fast", i, 0.5); err != nil {
							return 0, err
						}
						sp := rec.Span("inner")
						sp.Iter(1, 0.1)
						sp.End()
						if mode == 0 {
							return i, nil
						}
						return 0, classedErr{"no-convergence"}
					}},
					Step[int]{Name: "exact", Run: func(ctx context.Context, rec obs.Recorder) (int, error) {
						if mode == 1 {
							return i, nil
						}
						return 0, classedErr{"divergence"}
					}},
				)
				switch {
				case cancel != nil:
					if !errors.Is(err, ErrCanceled) {
						t.Errorf("canceled run returned %v", err)
					}
				case mode == 2:
					var ex *ExhaustedError
					if !errors.As(err, &ex) {
						t.Errorf("mode 2 want exhausted, got %v", err)
					}
				default:
					if err != nil || v != i {
						t.Errorf("mode %d got %v, %v", mode, v, err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	root := tr.Finish()
	chains := 0
	root.Walk(func(s *obs.Span) {
		if s.Name == "guard.chain" {
			chains++
		}
	})
	if chains != goroutines*runs {
		t.Errorf("recorded %d chain spans, want %d", chains, goroutines*runs)
	}
}

// TestPrefer checks the hint-driven step reordering: the named step moves
// first, relative order of the rest is kept, unknown names are a no-op.
func TestPrefer(t *testing.T) {
	mk := func(names ...string) []Step[int] {
		out := make([]Step[int], len(names))
		for i, n := range names {
			out[i] = Step[int]{Name: n}
		}
		return out
	}
	names := func(steps []Step[int]) []string {
		out := make([]string, len(steps))
		for i, s := range steps {
			out[i] = s.Name
		}
		return out
	}
	cases := []struct {
		prefer string
		in     []string
		want   []string
	}{
		{"gth", []string{"sor", "gth"}, []string{"gth", "sor"}},
		{"sor", []string{"sor", "gth"}, []string{"sor", "gth"}},
		{"c", []string{"a", "b", "c", "d"}, []string{"c", "a", "b", "d"}},
		{"missing", []string{"a", "b"}, []string{"a", "b"}},
		{"x", nil, nil},
	}
	for _, tc := range cases {
		got := names(Prefer(tc.prefer, mk(tc.in...)...))
		if len(got) != len(tc.want) {
			t.Errorf("Prefer(%q, %v) = %v, want %v", tc.prefer, tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("Prefer(%q, %v) = %v, want %v", tc.prefer, tc.in, got, tc.want)
				break
			}
		}
	}
}
