package modelio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// jsonDecode is the reference decode: encoding/json with unknown fields
// disallowed, the path every document decodeCTMC declines takes.
func jsonDecode(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, err
	}
	return &s, nil
}

// sameSpec reports whether a and b are deeply equal with every float
// compared by its bits, so -0 and 0 differ.
func sameSpec(a, b *Spec) bool {
	if !reflect.DeepEqual(a, b) {
		return false
	}
	if a.CTMC == nil {
		return true
	}
	x, y := a.CTMC, b.CTMC
	bits := math.Float64bits
	if bits(x.Time) != bits(y.Time) || bits(x.SolverTol) != bits(y.SolverTol) || bits(x.SolverOmega) != bits(y.SolverOmega) {
		return false
	}
	for i := range x.Transitions {
		if bits(x.Transitions[i].Rate) != bits(y.Transitions[i].Rate) {
			return false
		}
	}
	return true
}

// checkDecodeCTMC is the differential oracle: decodeCTMC either declines
// data or returns exactly the Spec encoding/json decodes from it.
func checkDecodeCTMC(t *testing.T, data []byte) (accepted bool) {
	t.Helper()
	got, ok := decodeCTMC(data)
	if !ok {
		return false
	}
	want, err := jsonDecode(data)
	if err != nil {
		t.Fatalf("decodeCTMC accepted a document encoding/json rejects (%v):\n%q", err, data)
	}
	if !sameSpec(got, want) {
		t.Fatalf("decodeCTMC and encoding/json disagree on\n%q\ngot  %#v\nwant %#v", data, got, want)
	}
	return true
}

// plainCTMC is a plain ctmc document using every field decodeCTMC knows.
const plainCTMC = `{"type":"ctmc","name":"plain","ctmc":{` +
	`"transitions":[{"from":"up","to":"down","rate":0.012345678901234567},{"from":"down","to":"up","rate":1.5e-1}],` +
	`"initial":"up","upStates":["up"],"absorbing":["down"],"measures":["availability","mtta"],` +
	`"time":10,"solver":"sor","solverTol":1e-12,"solverMaxIter":5000,"solverOmega":1.25,"lump":"off"}}`

// withCTMC wraps a ctmc section body into a document.
func withCTMC(body string) string {
	return `{"type":"ctmc","ctmc":{` + body + `}}`
}

// decodeCases are the adversarial inputs: the fuzz target starts from
// them, and TestDecodeCTMCCases checks which ones the one-pass decoder
// takes.
var decodeCases = []struct {
	name   string
	doc    string
	accept bool
}{
	{"plain", plainCTMC, true},
	{"empty object", `{}`, true},
	{"empty ctmc", withCTMC(``), true},
	{"whitespace between tokens", " \t\r\n{ \"type\" :\t\"ctmc\" ,\n\"ctmc\":{ \"transitions\" : [ { \"from\":\"a\" , \"to\":\"b\",\"rate\": 2 } ] , \"measures\":[ \"steadystate\" ] } }\n", true},
	{"key order", `{"ctmc":{"measures":["steadystate"],"transitions":[{"rate":1,"to":"b","from":"a"}]},"name":"n","type":"ctmc"}`, true},
	{"empty transition object", withCTMC(`"transitions":[{}]`), true},
	{"empty arrays", withCTMC(`"transitions":[],"upStates":[],"absorbing":[],"measures":[]`), true},
	{"absent arrays", withCTMC(`"initial":"a"`), true},
	{"trailing garbage", plainCTMC + `]]} not json at all`, true},
	{"second document", plainCTMC + plainCTMC, true},
	{"non-ASCII name", `{"type":"ctmc","name":"état ✓","ctmc":{}}`, true},
	{"DEL in string", "{\"type\":\"ctmc\",\"name\":\"a\x7fb\"}", true},
	{"U+FFFD in string", "{\"type\":\"ctmc\",\"name\":\"\xef\xbf\xbd\"}", true},
	{"negative zero rate", withCTMC(`"transitions":[{"from":"a","to":"b","rate":-0}]`), true},
	{"negative zero float", withCTMC(`"time":-0.0,"solverTol":-0e5`), true},
	{"exponent forms", withCTMC(`"time":1E+2,"solverTol":1e-300,"solverOmega":12.5E-1`), true},
	{"subnormal", withCTMC(`"solverTol":4.9e-324`), true},
	{"underflow to zero", withCTMC(`"solverTol":1e-400`), true},
	{"long mantissa", withCTMC(`"time":3.14159265358979323846264338327950288419716939937510582097494459`), true},
	{"negative zero int", withCTMC(`"solverMaxIter":-0`), true},
	{"max int", withCTMC(`"solverMaxIter":9223372036854775807`), true},

	{"empty input", ``, false},
	{"whitespace only", " \n", false},
	{"top-level array", `[1,2,3]`, false},
	{"top-level null", `null`, false},
	{"BOM", "\xef\xbb\xbf" + plainCTMC, false},
	{"other family", `{"type":"rbd","rbd":{"structure":{"comp":"x"}}}`, false},
	{"escape in value", `{"type":"\u0063tmc","ctmc":{"initial":"\u0061"}}`, false},
	{"escape in key", `{"typ\u0065":"ctmc"}`, false},
	{"newline escape", withCTMC(`"initial":"a\nb"`), false},
	{"escaped quote", withCTMC(`"initial":"a\"b"`), false},
	{"raw control byte", "{\"type\":\"ctmc\",\"name\":\"a\x01b\"}", false},
	{"raw newline in string", "{\"type\":\"ctmc\",\"name\":\"a\nb\"}", false},
	{"invalid UTF-8", "{\"type\":\"ctmc\",\"name\":\"\xff\"}", false},
	{"truncated UTF-8", "{\"type\":\"ctmc\",\"name\":\"\xc3\"}", false},
	{"surrogate UTF-8", "{\"type\":\"ctmc\",\"name\":\"\xed\xa0\x80\"}", false},
	{"null type", `{"type":null}`, false},
	{"null name", `{"type":"ctmc","name":null}`, false},
	{"null ctmc", `{"type":"ctmc","ctmc":null}`, false},
	{"null transitions", withCTMC(`"transitions":null`), false},
	{"null transition", withCTMC(`"transitions":[null]`), false},
	{"null from", withCTMC(`"transitions":[{"from":null,"to":"b","rate":1}]`), false},
	{"null to", withCTMC(`"transitions":[{"from":"a","to":null,"rate":1}]`), false},
	{"null rate", withCTMC(`"transitions":[{"from":"a","to":"b","rate":null}]`), false},
	{"null initial", withCTMC(`"initial":null`), false},
	{"null upStates", withCTMC(`"upStates":null`), false},
	{"null absorbing", withCTMC(`"absorbing":null`), false},
	{"null measures", withCTMC(`"measures":null`), false},
	{"null measure", withCTMC(`"measures":[null]`), false},
	{"null time", withCTMC(`"time":null`), false},
	{"null solver", withCTMC(`"solver":null`), false},
	{"null solverTol", withCTMC(`"solverTol":null`), false},
	{"null solverMaxIter", withCTMC(`"solverMaxIter":null`), false},
	{"null solverOmega", withCTMC(`"solverOmega":null`), false},
	{"null lump", withCTMC(`"lump":null`), false},
	{"folded top key", `{"Type":"ctmc","ctmc":{}}`, false},
	{"folded section key", `{"type":"ctmc","CTMC":{}}`, false},
	{"folded ctmc key", withCTMC(`"TRANSITIONS":[]`), false},
	{"folded camel key", withCTMC(`"upstates":["a"]`), false},
	{"folded transition key", withCTMC(`"transitions":[{"From":"a","to":"b","rate":1}]`), false},
	{"exact then folded key", withCTMC(`"transitions":[{"from":"a","From":"b","to":"c","rate":1}]`), false},
	{"Unicode-folded key", withCTMC(`"meaſures":["steadystate"]`), false},
	{"dotted capital I key", withCTMC(`"İnitial":"a"`), false},
	{"repeated type", `{"type":"ctmc","type":"rbd"}`, false},
	{"repeated name", `{"type":"ctmc","name":"a","name":"b"}`, false},
	{"repeated ctmc", `{"type":"ctmc","ctmc":{"initial":"a"},"ctmc":{"measures":["mtta"]}}`, false},
	{"repeated transitions", withCTMC(`"transitions":[{"from":"a","to":"b","rate":1}],"transitions":[]`), false},
	{"repeated measures", withCTMC(`"measures":["a"],"measures":["b"]`), false},
	{"repeated time", withCTMC(`"time":1,"time":2`), false},
	{"repeated from", withCTMC(`"transitions":[{"from":"a","from":"b","to":"c","rate":1}]`), false},
	{"repeated rate", withCTMC(`"transitions":[{"from":"a","to":"b","rate":1,"rate":2}]`), false},
	{"unknown top key", `{"type":"ctmc","ctmc":{},"extra":1}`, false},
	{"unknown sibling section", `{"type":"ctmc","ctmc":{},"rbd":{}}`, false},
	{"unknown ctmc key", withCTMC(`"upstatez":["a"]`), false},
	{"unknown transition key", withCTMC(`"transitions":[{"from":"a","to":"b","rate":1,"weight":2}]`), false},
	{"empty key", withCTMC(`"":1`), false},
	{"leading zero", withCTMC(`"time":01`), false},
	{"bare fraction", withCTMC(`"time":1.`), false},
	{"bare exponent", withCTMC(`"time":1e`), false},
	{"leading dot", withCTMC(`"time":.5`), false},
	{"plus sign", withCTMC(`"time":+1`), false},
	{"lone minus", withCTMC(`"time":-`), false},
	{"hex float", withCTMC(`"time":0x1p3`), false},
	{"infinity literal", withCTMC(`"time":Infinity`), false},
	{"overflow", withCTMC(`"time":1e400`), false},
	{"negative overflow", withCTMC(`"transitions":[{"from":"a","to":"b","rate":-1e400}]`), false},
	{"fractional int", withCTMC(`"solverMaxIter":1.5`), false},
	{"exponent int", withCTMC(`"solverMaxIter":1e2`), false},
	{"int overflow", withCTMC(`"solverMaxIter":9223372036854775808`), false},
	{"string for number", withCTMC(`"time":"10"`), false},
	{"number for string", withCTMC(`"initial":1`), false},
	{"bool for number", withCTMC(`"time":true`), false},
	{"object for array", withCTMC(`"measures":{}`), false},
	{"array for object", `{"type":"ctmc","ctmc":[]}`, false},
	{"number in string array", withCTMC(`"upStates":["a",1]`), false},
	{"trailing comma in object", withCTMC(`"initial":"a",`), false},
	{"trailing comma in array", withCTMC(`"measures":["a",]`), false},
	{"missing colon", withCTMC(`"initial" "a"`), false},
	{"missing comma", withCTMC(`"initial":"a" "lump":"off"`), false},
	{"unterminated string", `{"type":"ctm`, false},
	{"single quotes", `{'type':'ctmc'}`, false},
}

func TestDecodeCTMCCases(t *testing.T) {
	for _, tc := range decodeCases {
		t.Run(tc.name, func(t *testing.T) {
			if got := checkDecodeCTMC(t, []byte(tc.doc)); got != tc.accept {
				t.Errorf("decodeCTMC accepted = %v, want %v", got, tc.accept)
			}
		})
	}
}

// TestDecodeCTMCTruncation declines every strict prefix of a plain
// document: none of them closes the top-level object.
func TestDecodeCTMCTruncation(t *testing.T) {
	for n := 0; n < len(plainCTMC); n++ {
		if checkDecodeCTMC(t, []byte(plainCTMC[:n])) {
			t.Fatalf("accepted the %d-byte prefix %q", n, plainCTMC[:n])
		}
	}
}

// TestDecodeCTMCModels runs every bundled model through the oracle: the
// ctmc fixtures are plain JSON and take the one-pass decoder, and every
// other family declines it.
func TestDecodeCTMCModels(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "models", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := jsonDecode(raw)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if got := checkDecodeCTMC(t, raw); got != (want.Type == "ctmc") {
			t.Errorf("%s (type %s): decodeCTMC accepted = %v", filepath.Base(p), want.Type, got)
		}
	}
}

// FuzzDecodeCTMC is the differential oracle over arbitrary bytes: the
// one-pass decoder either declines or agrees with encoding/json bit for
// bit.
func FuzzDecodeCTMC(f *testing.F) {
	seedModels(f)
	for _, tc := range decodeCases {
		f.Add([]byte(tc.doc))
	}
	f.Add(farmDoc(f, 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeCTMC(t, data)
	})
}

// farmDoc renders, through json.Marshal, the availability model of a
// repair farm of m heterogeneous machines, each with its own failure and
// repair rate: 2^m states, m transitions out of each.
func farmDoc(tb testing.TB, m int) []byte {
	tb.Helper()
	state := func(s int) string {
		b := make([]byte, m)
		for i := range b {
			b[i] = '0' + byte(s>>i&1)
		}
		return string(b)
	}
	c := &CTMCSpec{Measures: []string{"availability"}}
	for s := 0; s < 1<<m; s++ {
		if 4*strings.Count(state(s), "1") <= m {
			c.UpStates = append(c.UpStates, state(s))
		}
		for i := 0; i < m; i++ {
			rate := 0.02 * (1 + float64(i)/7) // failure
			if s>>i&1 == 1 {
				rate = 0.5 * (1 + float64(i)/3) // repair
			}
			c.Transitions = append(c.Transitions, CTMCTransition{From: state(s), To: state(s ^ 1<<i), Rate: rate})
		}
	}
	doc, err := json.Marshal(&Spec{Type: "ctmc", Name: fmt.Sprintf("farm%d", m), CTMC: c})
	if err != nil {
		tb.Fatal(err)
	}
	return doc
}

// TestParseCTMCAllocs guards that Parse takes the one-pass decoder on a
// large plain ctmc document: with state names interned, a 2,048-state,
// 22,528-transition farm costs one allocation per distinct state plus a
// small constant. encoding/json allocates per string field, over 45,000.
func TestParseCTMCAllocs(t *testing.T) {
	doc := farmDoc(t, 11)
	want, err := jsonDecode(doc)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(want.CTMC.Transitions); got != 22528 {
		t.Fatalf("farm has %d transitions, want 22528", got)
	}
	const states = 2048
	var spec *Spec
	allocs := testing.AllocsPerRun(3, func() {
		if spec, err = Parse(bytes.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
	})
	if !sameSpec(spec, want) {
		t.Fatal("Parse and encoding/json disagree on the farm")
	}
	if allocs > states+64 {
		t.Errorf("Parse made %.0f allocations, want at most %d (distinct states + 64)", allocs, states+64)
	}
}

func BenchmarkParse(b *testing.B) {
	for _, m := range []int{9, 11} {
		doc := farmDoc(b, m)
		b.Run(fmt.Sprintf("farm/n=%d", 1<<m), func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Parse(bytes.NewReader(doc)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
