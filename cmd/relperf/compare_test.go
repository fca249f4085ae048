package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", got)
	}
}

// TestCompareCanned runs compare on canned result files: ten base and
// ten change runs of serve-large, untraced and traced.
func TestCompareCanned(t *testing.T) {
	def := benchDef{
		EndToEnd: []benchMetric{
			{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1},
			{Name: "throughput", Unit: "1/s", Better: "higher", Bound: 0.1},
			{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.1},
			{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.05},
		},
		PerLayer: []benchMetric{
			{Name: "linalg.sor.us", Unit: "us", Better: "lower"},
			{Name: "modelio.parse.us", Unit: "us", Better: "lower"},
		},
	}
	run := func(trace bool, vals map[string]float64) *runResult {
		r := &runResult{Workload: "serve-large", Trace: trace, Correct: true, Attempted: 1, Metrics: map[string]metric{}}
		for n, v := range vals {
			r.Metrics[n] = metric{Value: v}
		}
		return r
	}
	var base, change []*runResult
	for i := 0; i < 10; i++ {
		x := float64(i)
		wobble := float64(i%2) * 2 // alternating, so neither side wins 9/10
		base = append(base,
			run(false, map[string]float64{"latency_p50_ms": 40 + x/10, "throughput": 50 - x/10, "cpu_ms_per_op": 38 + x/10, "peak_rss_mb": 40 + 2*wobble}),
			run(true, map[string]float64{"linalg.sor.us": 2600 + x, "modelio.parse.us": 15000 + wobble}))
		change = append(change,
			run(false, map[string]float64{"latency_p50_ms": 80 + x/10, "throughput": 60 - x/10, "cpu_ms_per_op": 38.05 + x/10, "peak_rss_mb": 44 - 2*wobble}),
			run(true, map[string]float64{"linalg.sor.us": 5200 + x, "modelio.parse.us": 15002 - wobble}))
	}
	want := map[string]string{
		"latency_p50_ms":   "regressed",
		"throughput":       "improved",
		"cpu_ms_per_op":    "unchanged",
		"peak_rss_mb":      "unresolved",
		"linalg.sor.us":    "worsened",
		"modelio.parse.us": "steady",
	}

	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	raw, err := json.Marshal(def)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bench, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var bfiles, cfiles []string
	for i := 0; i < 10; i++ {
		b := filepath.Join(dir, "base"+string(rune('a'+i))+".json")
		c := filepath.Join(dir, "change"+string(rune('a'+i))+".json")
		if err := writeResults(b, base[2*i:2*i+2], nil); err != nil {
			t.Fatal(err)
		}
		if err := writeResults(c, change[2*i:2*i+2], nil); err != nil {
			t.Fatal(err)
		}
		bfiles, cfiles = append(bfiles, b), append(cfiles, c)
	}
	var out, errb bytes.Buffer
	code := runCompare([]string{"-bench", bench, "-base", strings.Join(bfiles, ","), "-change", strings.Join(cfiles, ",")}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (a regression); stderr: %s", code, errb.String())
	}
	seen := 0
	for _, line := range strings.Split(out.String(), "\n")[1:] {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		if v, ok := want[f[1]]; ok {
			seen++
			if f[0] != "serve-large" || f[len(f)-1] != v {
				t.Errorf("row %q: want verdict %s", line, v)
			}
		}
	}
	if seen != len(want) {
		t.Fatalf("saw %d rows, want %d:\n%s", seen, len(want), out.String())
	}
}
