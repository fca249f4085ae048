package repro

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
)

// baselineFile is the committed suite baseline TestSuiteBaseline gates
// and `relcli serve -bench` shows on the dashboard.
const baselineFile = "BENCH_solvers.json"

// baselineRow is one experiment's row of the suite baseline. Solver and
// Iterations are deterministic for a fixed model, so they are checked
// exactly; Allocs repeats closely but not exactly, so it is checked
// inside a two-sided band; WallMS is only a backstop.
type baselineRow struct {
	ID         string  `json:"id"`
	Title      string  `json:"title"`
	Solver     string  `json:"solver"`
	Iterations int     `json:"iterations"`
	Allocs     uint64  `json:"allocs"`
	WallMS     float64 `json:"wall_ms"`
}

// The allocation band: a row fails when its count moves, up or down, by
// more than allocBandRel of the baseline AND by more than allocBandAbs
// allocations. Go gives every map its own random hash seed, so a map's
// table splits, and with them a few allocations, differ from run to run.
// Over 36 processes (GOMAXPROCS 1, 2 and 4) first-run counts spread by
// 52 on E1 (112.9k), 20 on E2 (16.2k), 17 on E4 (2.7k), 12 on E14
// (13.8k) and 283 on E15 (3.94M, its worker pool included); the band
// clears each of those by at least 2.8x and still fails a 1% move.
const (
	allocBandRel = 0.005
	allocBandAbs = 48
)

// The wall-time backstop: a row fails only when it is over wallFactor
// times its baseline AND over wallSlackMS slower. Wall time varies with
// the machine and its load; iterations and allocations carry the gate.
const (
	wallFactor  = 10
	wallSlackMS = 250
)

// compareBaseline checks a fresh run against the committed rows and
// returns one message per violation (none means the run passes). A row
// missing on either side fails, so a stale baseline fails loudly instead
// of silently shrinking coverage.
func compareBaseline(got, want []baselineRow) []string {
	base := make(map[string]baselineRow, len(want))
	for _, b := range want {
		base[b.ID] = b
	}
	var msgs []string
	seen := make(map[string]bool, len(got))
	for _, g := range got {
		seen[g.ID] = true
		b, ok := base[g.ID]
		if !ok {
			msgs = append(msgs, g.ID+": not in "+baselineFile+"; regenerate it with -update")
			continue
		}
		name := b.ID
		if b.Solver != "" {
			name += " (" + b.Solver + ")"
		}
		if g.Solver != b.Solver {
			msgs = append(msgs, fmt.Sprintf("%s: dominant solver %q -> %q", name, b.Solver, g.Solver))
		}
		if g.Iterations != b.Iterations {
			msgs = append(msgs, fmt.Sprintf("%s: iterations %d -> %d; iteration counts are exact", name, b.Iterations, g.Iterations))
		}
		if ga, ba := float64(g.Allocs), float64(b.Allocs); math.Abs(ga-ba) > allocBandAbs && core.RelativeError(ba, ga) > allocBandRel {
			msgs = append(msgs, fmt.Sprintf("%s: allocations %d -> %d (%+.2f%%), outside the %g%% / %d band; if intended, regenerate with -update",
				name, b.Allocs, g.Allocs, 100*(ga-ba)/ba, 100*allocBandRel, allocBandAbs))
		}
		if g.WallMS > b.WallMS*wallFactor && g.WallMS-b.WallMS > wallSlackMS {
			msgs = append(msgs, fmt.Sprintf("%s: wall %.1fms -> %.1fms, over the %dx + %dms backstop", name, b.WallMS, g.WallMS, wallFactor, wallSlackMS))
		}
	}
	for _, b := range want {
		if !seen[b.ID] {
			msgs = append(msgs, b.ID+": in "+baselineFile+" but not in this run")
		}
	}
	return msgs
}

// TestBaselineVerdicts pins the gate's verdicts on canned rows.
func TestBaselineVerdicts(t *testing.T) {
	base := []baselineRow{
		{ID: "E1", Solver: "bdd", Allocs: 112_916, WallMS: 30},
		{ID: "E3", Solver: "sor", Iterations: 52, Allocs: 100_000, WallMS: 20},
		{ID: "E15", Allocs: 1_000, WallMS: 400},
	}
	edit := func(i int, f func(r *baselineRow)) []baselineRow {
		rows := append([]baselineRow(nil), base...)
		f(&rows[i])
		return rows
	}
	for _, tc := range []struct {
		name string
		got  []baselineRow
		want []string // substrings of the one expected message; nil means pass
	}{
		{"identical", base, nil},
		{"iterations_doubled", edit(1, func(r *baselineRow) { r.Iterations = 104 }), []string{"E3 (sor)", "52", "104"}},
		{"solver_changed", edit(1, func(r *baselineRow) { r.Solver = "gth" }), []string{"E3 (sor)", `"gth"`}},
		{"allocs_up_1pct", edit(1, func(r *baselineRow) { r.Allocs = 101_000 }), []string{"E3 (sor)", "100000 -> 101000", "-update"}},
		{"allocs_down_1pct", edit(1, func(r *baselineRow) { r.Allocs = 99_000 }), []string{"E3 (sor)", "100000 -> 99000", "-update"}},
		{"allocs_up_0.44pct", edit(0, func(r *baselineRow) { r.Allocs += 500 }), nil},
		{"allocs_down_0.45pct", edit(1, func(r *baselineRow) { r.Allocs -= 450 }), nil},
		{"allocs_small_row_48", edit(2, func(r *baselineRow) { r.Allocs += 48 }), nil},
		{"allocs_small_row_49", edit(2, func(r *baselineRow) { r.Allocs -= 49 }), []string{"E15:", "1000 -> 951"}},
		{"wall_11x_plus_300ms", edit(0, func(r *baselineRow) { r.WallMS = 330 }), []string{"E1 (bdd)", "backstop"}},
		{"wall_11x_plus_200ms", edit(1, func(r *baselineRow) { r.WallMS = 220 }), nil},
		{"row_missing_from_run", base[:2], []string{"E15", "not in this run"}},
		{"row_missing_from_baseline", append(base[:3:3], baselineRow{ID: "E17"}), []string{"E17", "not in " + baselineFile}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := compareBaseline(tc.got, base)
			if tc.want == nil {
				if len(got) != 0 {
					t.Fatalf("want pass, got %q", got)
				}
				return
			}
			if len(got) != 1 {
				t.Fatalf("want one violation, got %q", got)
			}
			for _, sub := range tc.want {
				if !strings.Contains(got[0], sub) {
					t.Errorf("message %q does not name %q", got[0], sub)
				}
			}
		})
	}
}
