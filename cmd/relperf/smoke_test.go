package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs every workload, untraced and traced, for a few hundred
// milliseconds and checks that each metric BENCHMARK.json names is
// emitted, finite, and in its unit. Everything but the untraced suite
// needs a relcli build, which -short skips.
func TestSmoke(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def benchDef
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	cfg := config{
		root: root, bin: t.TempDir(), seed: 1,
		window:     300 * time.Millisecond,
		setups:     1,
		jobSamples: 2000,
		suiteIDs:   []string{"E5"},
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := def.EndToEnd
			if traced {
				want = def.PerLayer
			}
			name := w
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				if testing.Short() && (traced || w != "suite") {
					t.Skip("needs a relcli build")
				}
				res, _, err := runOne(cfg, w, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d errors=%v", res.Correct, res.Attempted, res.Failed, res.Errors)
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("%s not emitted", m.Name)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("%s = %g", m.Name, got.Value)
					case got.Unit != m.Unit:
						t.Errorf("%s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
			})
		}
	}
}
