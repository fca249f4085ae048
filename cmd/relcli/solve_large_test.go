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
// chains: farm9 solves its steady state by SOR (512 states, irreducible
// and not stiff, so auto picks SOR capped at GTH's predicted cost),
// farm10 its transient by uniformization, farm11 its availability by SOR
// after the auto-lump analysis finds nothing to lump.
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

// TestSolveLargeAllocs holds parse plus solve of four farms to their
// sizes. The first two rows date from one indexed chain running from
// document to kernel. Before it (COO triplets sorted into the generator,
// relstruct's own numbered copy of the chain and its per-state adjacency
// appends, a fresh vector per uniformization step, a decoded transition
// slice grown by doubling), BenchmarkSolveLarge measured the 11-machine
// availability farm at 16,937,390 bytes and 25,045 allocations and the
// 10-machine transient farm at 8,498,425 bytes and 1,460 allocations;
// with it, 5,381,843 bytes and 2,843 allocations, and 1,573,091 bytes and
// 1,099 allocations. The lumping pre-pass computing the partition alone
// took farm11 to 4,949,061 bytes and 2,787 allocations. The last two
// rows date from auto's choice of SOR for a 512-state chain and the
// exit-weight bound on the partition: the 9-machine steady state reads
// 818,243 bytes and 579 allocations (2,777,363 bytes with dense GTH's
// 512² working matrix), and an 11-machine farm with relperf-like random
// rates, whose exits settle the partition, 3,662,032 bytes and 2,151
// allocations (5,725,248 bytes and 2,350 allocations with the full
// refinement). Each bound is 25% above the current size, tight enough
// that any one of those costs coming back fails it: the per-state
// appends add ~10,000 allocations to farm11, the per-step vectors ~1.8
// MB to farm10, GTH ~1.9 MB to farm9 and the refinement ~2 MB to the
// random farm.
func TestSolveLargeAllocs(t *testing.T) {
	for _, tc := range []struct {
		machines           int
		measure            string
		seed               int64
		maxBytes, maxAlloc float64
	}{
		{11, "availability", 0, 1.25 * 4949061, 1.25 * 2787},
		{10, "transient", 0, 1.25 * 1573091, 1.25 * 1099},
		{9, "steadystate", 0, 1.25 * 818243, 1.25 * 579},
		{11, "availability", 7, 1.25 * 3662032, 1.25 * 2151},
	} {
		doc := farmDocFor(t, tc.machines, tc.measure)
		if tc.seed != 0 {
			doc = randomFarmDoc(t, tc.machines, tc.measure, tc.seed)
		}
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
		if tc.seed != 0 {
			name += fmt.Sprintf(" (random rates, seed %d)", tc.seed)
		}
		t.Logf("%s: %.0f bytes, %.0f allocations per parse and solve", name, bytes, allocs)
		if bytes > tc.maxBytes {
			t.Errorf("%s: %.0f bytes per parse and solve, want at most %.0f", name, bytes, tc.maxBytes)
		}
		if allocs > tc.maxAlloc {
			t.Errorf("%s: %.0f allocations per parse and solve, want at most %.0f", name, allocs, tc.maxAlloc)
		}
	}
}
