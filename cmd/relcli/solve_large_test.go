//go:build !race

// The race detector's instrumentation allocates, so the allocation gate
// only builds without it.

package main

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/modelio"
)

// solveLargeFarms are the in-test stand-ins for relperf's serve-large
// chains: farm9 solves its steady state by dense GTH, farm10 its
// transient by uniformization, farm11 its availability by SOR after the
// auto-lump analysis finds nothing to lump.
var solveLargeFarms = []struct {
	name     string
	machines int
	measure  string
}{
	{"farm9-steadystate", 9, "steadystate"},
	{"farm10-transient", 10, "transient"},
	{"farm11-availability", 11, "availability"},
}

// parseSolve parses one document from its bytes and solves it, as a
// served request does.
func parseSolve(tb testing.TB, doc []byte) {
	spec, err := modelio.ParseBytes(doc)
	if err != nil {
		tb.Fatal(err)
	}
	if res, err := modelio.SolveWithOptions(spec, modelio.SolveOptions{}); err != nil || len(res) != 1 {
		tb.Fatalf("solve: %v (%d results)", err, len(res))
	}
}

// BenchmarkSolveLarge times parse plus solve of each large farm.
func BenchmarkSolveLarge(b *testing.B) {
	for _, f := range solveLargeFarms {
		doc := farmDocFor(b, f.machines, f.measure)
		b.Run(f.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				parseSolve(b, doc)
			}
		})
	}
}

// TestSolveLargeAllocs holds parse plus solve of the 11-machine
// availability farm and the 10-machine transient farm to their sizes
// since one indexed chain runs from document to kernel. Before it (COO
// triplets sorted into the generator, relstruct's own numbered copy of
// the chain and its per-state adjacency appends, a fresh vector per
// uniformization step, a decoded transition slice grown by doubling),
// BenchmarkSolveLarge measured farm11 at 16,937,390 bytes and 25,045
// allocations and farm10 at 8,498,425 bytes and 1,460 allocations; with
// it, 5,381,843 bytes and 2,843 allocations, and 1,573,091 bytes and
// 1,099 allocations. Each bound is 25% above the latter, well inside
// half the former bytes and a third of farm11's former allocations, and
// tight enough that any one of those costs coming back fails it: the
// per-state appends add ~10,000 allocations to farm11 and the per-step
// vectors ~1.8 MB to farm10.
func TestSolveLargeAllocs(t *testing.T) {
	for _, tc := range []struct {
		machines           int
		measure            string
		maxBytes, maxAlloc float64
	}{
		{11, "availability", 1.25 * 5381843, 1.25 * 2843},
		{10, "transient", 1.25 * 1573091, 1.25 * 1099},
	} {
		doc := farmDocFor(t, tc.machines, tc.measure)
		parseSolve(t, doc) // warm the decoder's and solver's lazy state
		const runs = 3
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			parseSolve(t, doc)
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
		allocs := float64(after.Mallocs-before.Mallocs) / runs
		name := fmt.Sprintf("farm%d %s", tc.machines, tc.measure)
		t.Logf("%s: %.0f bytes, %.0f allocations per parse and solve", name, bytes, allocs)
		if bytes > tc.maxBytes {
			t.Errorf("%s: %.0f bytes per parse and solve, want at most %.0f", name, bytes, tc.maxBytes)
		}
		if allocs > tc.maxAlloc {
			t.Errorf("%s: %.0f allocations per parse and solve, want at most %.0f", name, allocs, tc.maxAlloc)
		}
	}
}
