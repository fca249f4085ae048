package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/metrics"
)

// repeatFaultTree is a fault tree whose events repeat across gates, the
// shape whose lint findings once came out in map order.
const repeatFaultTree = `{"type":"faulttree","name":"repeated","faulttree":{
  "events":[{"name":"pump","prob":0.01},{"name":"valve","prob":0.02},
            {"name":"power","prob":0.001},{"name":"sensor","prob":0.05}],
  "top":{"gate":"or","children":[
    {"gate":"and","children":[{"event":"pump"},{"event":"power"}]},
    {"gate":"and","children":[{"event":"valve"},{"event":"power"}]},
    {"gate":"and","children":[{"event":"sensor"},{"event":"pump"},{"event":"valve"}]}]},
  "measures":["top","mincuts"]}}`

// repeatTimeFields matches the fields whose values are clock readings.
var repeatTimeFields = regexp.MustCompile(`"(wall_ms|wall_ns|start|ts|time|uptime_s)":\s*[^,}\n]+`)

// TestOutputsRepeatByteForByte produces every `relcli solve|lint|analyze
// -json` output and every /solve and /analyze reply 20 times per
// document, and demands one byte sequence each, time fields masked. The
// documents are models/*.json, the 9-machine in-test farm (its 512
// states go through the auto-lump analysis and GTH; repairfarm.json
// covers SOR) and a fault tree with repeated events. The lint fixture's
// solve fails every time with 422, which leaves the breaker alone, so its
// replies repeat too. Go randomizes map order on every range, so an
// output that follows map order anywhere would differ within 20 copies.
func TestOutputsRepeatByteForByte(t *testing.T) {
	if testing.Short() {
		t.Skip("solves each document 40 times")
	}
	docs := map[string][]byte{
		"farm9":    farmDoc(t, 9),
		"repeated": []byte(repeatFaultTree),
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "models", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if docs[filepath.Base(p)], err = os.ReadFile(p); err != nil {
			t.Fatal(err)
		}
	}
	mux, err := newServeMux(serveConfig{Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	cli := func(args ...string) func([]byte) []byte {
		return func(doc []byte) []byte {
			var out bytes.Buffer
			if err := run(args, bytes.NewReader(doc), &out); err != nil {
				out.WriteString("error: " + err.Error())
			}
			return out.Bytes()
		}
	}
	post := func(path string) func([]byte) []byte {
		return func(doc []byte) []byte {
			w := httptest.NewRecorder()
			mux.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(doc)))
			return append([]byte(http.StatusText(w.Code)+"\n"), w.Body.Bytes()...)
		}
	}
	surfaces := []struct {
		name    string
		produce func([]byte) []byte
	}{
		{"relcli solve -json", cli("solve", "-json")},
		{"relcli lint -json", cli("lint", "-json")},
		{"relcli analyze -json", cli("analyze", "-json")},
		{"POST /solve", post("/solve")},
		{"POST /analyze", post("/analyze")},
	}
	for name, doc := range docs {
		for _, s := range surfaces {
			first := repeatTimeFields.ReplaceAll(s.produce(doc), []byte(`"$1": T`))
			for i := 1; i < 20; i++ {
				got := repeatTimeFields.ReplaceAll(s.produce(doc), []byte(`"$1": T`))
				if !bytes.Equal(got, first) {
					t.Errorf("%s on %s: copy %d differs from copy 0:\n%s\nvs\n%s", s.name, name, i, got, first)
					break
				}
			}
		}
	}
}
