package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/modelio"
	"repro/internal/uncertainty"
)

// solvePerSample is the reference evaluator: it clones the document,
// writes the sampled rates into the clone, and solves the clone from
// scratch with modelio.SolveWithOptions, compiling once per sample.
func solvePerSample(s *Spec, assign map[string]float64) (float64, error) {
	var doc modelio.Spec
	if err := json.Unmarshal(s.Model, &doc); err != nil {
		return 0, err
	}
	clone := *doc.CTMC
	clone.Transitions = append([]modelio.CTMCTransition(nil), doc.CTMC.Transitions...)
	clone.Measures = []string{s.Measure}
	for _, ps := range s.Params {
		x := assign[ps.Name]
		for j, tr := range doc.CTMC.Transitions {
			if tr.From != ps.From || tr.To != ps.To {
				continue
			}
			if ps.Scale {
				clone.Transitions[j].Rate = tr.Rate * x
			} else {
				clone.Transitions[j].Rate = x
			}
		}
	}
	results, err := modelio.SolveWithOptions(&modelio.Spec{Type: "ctmc", Name: doc.Name, CTMC: &clone}, modelio.SolveOptions{})
	if err != nil {
		return 0, err
	}
	if len(results) != 1 {
		return 0, fmt.Errorf("%d results, want 1", len(results))
	}
	return results[0].Value, nil
}

func modelFile(t *testing.T, name string) json.RawMessage {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "models", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func lognormalScale(name, from, to string, sigma float64) ParamSpec {
	return ParamSpec{Name: name, Dist: &modelio.DistSpec{Kind: "lognormal", Sigma: sigma}, From: from, To: to, Scale: true}
}

// TestCompiledSweepMatchesPerSampleSolve checks that a sample solved on
// the job's compiled plan has the same bits as the same sample compiled
// and solved from scratch, across the solver paths a sweep can take.
func TestCompiledSweepMatchesPerSampleSolve(t *testing.T) {
	zeroBase := testSpec(1, 1, 0)
	zeroBase.Model = json.RawMessage(`{"type":"ctmc","name":"pair","ctmc":{"transitions":[{"from":"up","to":"down","rate":0},{"from":"down","to":"up","rate":1}],"upStates":["up"],"measures":["availability"]}}`)
	cases := []struct {
		name string
		spec *Spec
	}{
		{"repairfarm-sor", &Spec{Model: modelFile(t, "repairfarm.json"), Measure: "availability",
			Params: []ParamSpec{lognormalScale("lambda0", "0down", "1down", 0.25)}}},
		{"pair-gth-unscaled", testSpec(1, 1, 0)},
		{"stiff-chain", &Spec{Model: modelFile(t, "stiff.json"), Measure: "availability",
			Params: []ParamSpec{lognormalScale("escalate", "degraded", "down", 0.5)}}},
		{"lumpable", &Spec{Model: modelFile(t, "lumpable.json"), Measure: "availability",
			Params: []ParamSpec{lognormalScale("first", "m0000", "m1000", 0.3)}}},
		{"absorbing-mtta", &Spec{Model: modelFile(t, "absorbing.json"), Measure: "mtta",
			Params: []ParamSpec{lognormalScale("fail", "degraded", "failed", 0.4)}}},
		{"zero-base-rate", zeroBase},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.spec.Samples, tc.spec.Seed = 1, 1
			tc.spec.normalize()
			sw, err := compile(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			model := sw.model(context.Background())
			rng := uncertainty.ShardRNG(20160628, 0)
			for i := 0; i < 40; i++ {
				assign := make(map[string]float64, len(sw.params))
				for _, p := range sw.params {
					assign[p.Name] = p.Dist.Rand(rng)
					if i == 0 {
						// The document's own rates for scaled parameters:
						// the lumpable chain lumps at them.
						assign[p.Name] = 1
					}
				}
				got, err := model(assign)
				if err != nil {
					t.Fatalf("draw %d %v: compiled: %v", i, assign, err)
				}
				want, err := solvePerSample(tc.spec, assign)
				if err != nil {
					t.Fatalf("draw %d %v: per sample: %v", i, assign, err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("draw %d %v: compiled %v, per sample %v", i, assign, got, want)
				}
			}
		})
	}
}

// TestZeroBaseRateJobRuns pins that a parameter without scale may
// replace a base rate of 0: the job compiles and runs to done.
func TestZeroBaseRateJobRuns(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2})
	s := testSpec(200, 50, 3)
	s.Model = json.RawMessage(`{"type":"ctmc","name":"pair","ctmc":{"transitions":[{"from":"up","to":"down","rate":0},{"from":"down","to":"up","rate":1}],"upStates":["up"],"measures":["availability"]}}`)
	snap, _, err := e.Submit(s, "")
	if err != nil {
		t.Fatal(err)
	}
	if final := waitDone(t, e, snap.ID); final.State != StateDone {
		t.Fatalf("state %s (%s), want done", final.State, final.Error)
	}
}

// TestShardAllocationsFlat holds a repairfarm shard's allocations flat
// in its size. A shard attempt makes its model, with the plan's
// evaluator, and its estimators once; each sample then writes its rates
// and solves in their buffers. So 1,000 samples allocate what 100 do,
// within a few.
func TestShardAllocationsFlat(t *testing.T) {
	s := &Spec{Model: modelFile(t, "repairfarm.json"), Measure: "availability",
		Params: []ParamSpec{lognormalScale("lambda0", "0down", "1down", 0.25)}, Samples: 1000, Seed: 7}
	s.normalize()
	sw, err := compile(s)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	shard := func(size int) float64 {
		plan := sw.plan(0)
		plan.Size = size
		return testing.AllocsPerRun(5, func() {
			if _, err := uncertainty.RunShard(ctx, sw.model(ctx), sw.params, plan); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := shard(100), shard(1000)
	t.Logf("shard allocations: %v at 100 samples, %v at 1,000", small, large)
	if math.Abs(large-small) > 3 {
		t.Errorf("a 1,000-sample shard makes %v allocations and a 100-sample one %v; want at most 3 apart", large, small)
	}
}
