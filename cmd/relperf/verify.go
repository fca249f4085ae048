package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"

	"repro/internal/core"
	"repro/internal/modelio"
)

// resultTol is the largest relative error a served scalar may show
// against the in-process reference solve.
const resultTol = 1e-9

// solveReply is the part of a POST /solve reply the benchmark checks.
type solveReply struct {
	Degraded bool             `json:"degraded"`
	Results  []modelio.Result `json:"results"`
	Error    string           `json:"error"`
}

// reference solves doc in process, exactly as a client would expect.
func reference(doc []byte) ([]modelio.Result, error) {
	spec, err := modelio.Parse(bytes.NewReader(doc))
	if err != nil {
		return nil, err
	}
	return modelio.Solve(spec)
}

// checkReply verifies a served reply body against reference results:
// scalars and per-item details within resultTol, sets exactly.
func checkReply(body []byte, want []modelio.Result) error {
	var got solveReply
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("reply is not JSON: %w", err)
	}
	if got.Error != "" || got.Degraded {
		return fmt.Errorf("reply carries error %q (degraded %v)", got.Error, got.Degraded)
	}
	return sameResults(want, got.Results)
}

func sameResults(want, got []modelio.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Measure != w.Measure {
			return fmt.Errorf("result %d is %q, want %q", i, g.Measure, w.Measure)
		}
		if e := core.RelativeError(w.Value, g.Value); !(e <= resultTol) {
			return fmt.Errorf("%s = %g, want %g (rel err %g)", w.Measure, g.Value, w.Value, e)
		}
		if !reflect.DeepEqual(g.Sets, w.Sets) {
			return fmt.Errorf("%s: sets differ", w.Measure)
		}
		if len(g.Detail) != len(w.Detail) {
			return fmt.Errorf("%s: %d detail entries, want %d", w.Measure, len(g.Detail), len(w.Detail))
		}
		keys := make([]string, 0, len(w.Detail))
		for k := range w.Detail {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			gv, ok := g.Detail[k]
			if e := core.RelativeError(w.Detail[k], gv); !ok || !(e <= resultTol) {
				return fmt.Errorf("%s[%s] = %g, want %g", w.Measure, k, gv, w.Detail[k])
			}
		}
	}
	return nil
}
