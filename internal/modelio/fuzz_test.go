package modelio

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// seedModels feeds every bundled model document into the fuzz corpus, so
// mutation starts from realistic specs instead of raw JSON noise.
func seedModels(f *testing.F) {
	f.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "models", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// A few hand-picked degenerates the glob cannot cover.
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"type":"ctmc"}`))
	f.Add([]byte(`{"type":"rbd","rbd":{"structure":{"comp":"x"}}}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"type":"faulttree","faulttree":{"top":{"op":"and"}}}`))
	// The chaos-drill document mix (cmd/relcli chaos): fixtures chosen
	// to route traffic through every failpoint-instrumented solver
	// layer, plus the deliberately broken inputs the drill keeps 4xx.
	f.Add([]byte(`{"type":"ctmc","name":"chaos-chain","ctmc":{
		"transitions":[{"from":"a","to":"b","rate":1},{"from":"b","to":"c","rate":2},{"from":"c","to":"a","rate":3}],
		"measures":["steadystate"],"solver":"chain"}}`))
	f.Add([]byte(`{"type":"ctmc","name":"chaos-transient","ctmc":{
		"transitions":[{"from":"up","to":"down","rate":0.01},{"from":"down","to":"up","rate":1}],
		"initial":"up","upStates":["up"],"measures":["transient"],"time":10}}`))
	f.Add([]byte(`{"type":"rbd","name":"chaos-rbd","rbd":{
		"components":[{"name":"a","lifetime":{"kind":"exponential","rate":0.001}},
			{"name":"b","lifetime":{"kind":"exponential","rate":0.001}}],
		"structure":{"op":"parallel","children":[{"comp":"a"},{"comp":"b"}]},
		"measures":["reliability"],"time":100}}`))
	f.Add([]byte(`{"type":"faulttree","name":"chaos-ft","faulttree":{
		"events":[{"name":"e1","prob":0.01},{"name":"e2","prob":0.02},{"name":"e3","prob":0.03}],
		"top":{"op":"or","children":[{"op":"and","children":[{"event":"e1"},{"event":"e2"}]},{"event":"e3"}]},
		"measures":["top"],"bddBudget":2}}`))
	f.Add([]byte(`{this is not json`))
	f.Add([]byte(`{"type":"ctmc","name":"chaos-bad","ctmc":{
		"transitions":[{"from":"a","to":"b","rate":1}],"measures":["no-such-measure"]}}`))
}

// FuzzLoadDocument fuzzes the JSON model parser: Parse must never panic,
// and any document it accepts must survive a marshal/re-parse round trip
// (the spec types are the persistence format, so asymmetry there is a
// data-loss bug).
func FuzzLoadDocument(f *testing.F) {
	seedModels(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		out, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted document failed to re-marshal: %v", err)
		}
		if _, err := Parse(bytes.NewReader(out)); err != nil {
			t.Fatalf("round-tripped document rejected: %v\noriginal: %s\nround-trip: %s", err, data, out)
		}
	})
}
