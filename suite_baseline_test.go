//go:build !race

// The race detector's instrumentation allocates and slows the
// experiments (E12: 31.7k -> 34.6k allocations, E2 +1.2%; wall 1.6-15x),
// so the gate only builds without it.

package repro

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
)

var updateBaseline = flag.Bool("update", false, "rewrite "+baselineFile+" from this run")

// TestSuiteBaseline is the suite's performance gate. It runs every
// registered experiment once, in registry order, under an obs.Trace,
// counts its heap allocations as the runtime.MemStats.Mallocs delta (a
// GC first, so each experiment starts from the same heap), and checks
// each row against the committed BENCH_solvers.json (see
// compareBaseline for the band). With -update it rewrites the file
// instead.
func TestSuiteBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment suite")
	}
	reg, err := experiments.Registry()
	if err != nil {
		t.Fatal(err)
	}
	var rows []baselineRow
	for _, id := range reg.IDs() {
		e, err := reg.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTrace(id)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err = e.Run(tr)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		s := tr.Summary()
		rows = append(rows, baselineRow{
			ID:         id,
			Title:      e.Title,
			Solver:     s.Solver,
			Iterations: s.Iterations,
			Allocs:     after.Mallocs - before.Mallocs,
			WallMS:     math.Round(float64(s.WallNS)/1e3) / 1e3,
		})
	}
	if *updateBaseline {
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(baselineFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(baselineFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []baselineRow
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", baselineFile, err)
	}
	for _, msg := range compareBaseline(rows, want) {
		t.Error(msg)
	}
}
