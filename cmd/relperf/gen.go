package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// spliceWidth is the byte width of the number a serve-large request
// rewrites. Every spliced value lies in [0.01, 0.1) for rates or
// [0.001, 0.01) for probabilities, where its 12-decimal rendering has
// exactly this width, so a splice never shifts the rest of the document
// and needs no re-rendering.
const spliceWidth = 14

// shapeSeed fixes the base rates and probabilities of the serve-large
// documents. SOR iteration counts and uniformization truncation depend
// on the numbers as well as the structure, so bases drawn from the run's
// seed would make one seed's documents up to a third dearer to solve
// than another's. The run's seed instead moves every number within
// ±jitter of its base: each seed gives different documents of the same
// cost.
const (
	shapeSeed = 20160628
	jitter    = 0.02
)

// template is one pre-rendered serve-large document. Its structure and
// base numbers are fixed in code; the seed perturbs every number. One
// rate or probability at off is rewritten per request so that no two
// requests carry the same bytes.
type template struct {
	name   string
	doc    []byte
	off    int
	lo, hi float64
}

// draw returns a fresh value for the spliced field.
func (t *template) draw(rng *rand.Rand) float64 {
	return t.lo + (t.hi-t.lo)*rng.Float64()
}

// numbers draws base values from the fixed shape stream and perturbs
// each by the run's seed.
type numbers struct {
	shape, seed *rand.Rand
}

// next returns a value within ±jitter of a base uniform in [lo, hi).
func (n *numbers) next(lo, hi float64) float64 {
	base := lo + (hi-lo)*n.shape.Float64()
	return base * (1 + jitter*(2*n.seed.Float64()-1))
}

// spliced makes t's spliced field range over ±jitter of v.
func (t *template) spliced(v float64) {
	t.lo, t.hi = v*(1-jitter), v*(1+jitter)
}

// splice writes v into dst, a copy of t.doc, at the spliced field.
func (t *template) splice(dst []byte, v float64) {
	var buf [32]byte
	b := strconv.AppendFloat(buf[:0], v, 'f', 12, 64)
	if len(b) != spliceWidth {
		panic(fmt.Sprintf("relperf: spliced value %g renders as %d bytes, want %d", v, len(b), spliceWidth))
	}
	copy(dst[t.off:], b)
}

// largeTemplates renders the four serve-large documents for a seed:
//   - an 11-machine repair farm's availability (2048 states: the auto-lump
//     analysis runs and finds nothing to lump, then SOR);
//   - a 9-machine farm's steady-state vector (512 states, dense GTH);
//   - a 10-machine farm's transient at t = 10 (uniformization);
//   - a 48-event, 30-gate fault tree with repeated events (BDD, top).
//
// Machines are heterogeneous, so no two states are symmetric.
func largeTemplates(seed int64) []*template {
	num := &numbers{shape: rand.New(rand.NewSource(shapeSeed)), seed: rand.New(rand.NewSource(seed))}
	return []*template{
		farm(num, "farm11-availability", 11, "availability"),
		farm(num, "farm9-steadystate", 9, "steadystate"),
		farm(num, "farm10-transient", 10, "transient"),
		faultTree(num),
	}
}

// farm renders an n-machine repair farm with per-machine failure and
// repair rates. A state is a bit string with '1' for a failed machine.
// The spliced field is the first transition: machine 0 failing from the
// all-up state.
func farm(num *numbers, name string, n int, measure string) *template {
	t := &template{name: name}
	lam := make([]float64, n)
	mu := make([]float64, n)
	for i := range lam {
		lam[i] = num.next(0.02, 0.08)
		mu[i] = num.next(0.5, 1.5)
	}
	t.spliced(lam[0])
	state := func(s int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = '0' + byte(s>>i&1)
		}
		return string(b)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"type":"ctmc","name":%q,"ctmc":{"transitions":[`, name)
	for s := 0; s < 1<<n; s++ {
		for i := 0; i < n; i++ {
			if s > 0 || i > 0 {
				b.WriteByte(',')
			}
			rate := mu[i]
			if s&(1<<i) == 0 {
				rate = lam[i]
			}
			fmt.Fprintf(&b, `{"from":"%s","to":"%s","rate":`, state(s), state(s^1<<i))
			if s == 0 && i == 0 {
				t.off = b.Len()
				b.WriteString(strconv.FormatFloat(rate, 'f', 12, 64))
			} else {
				b.WriteString(strconv.FormatFloat(rate, 'g', -1, 64))
			}
			b.WriteByte('}')
		}
	}
	b.WriteString("],")
	switch measure {
	case "availability":
		// Up means at most a quarter of the machines down.
		var up []string
		for s := 0; s < 1<<n; s++ {
			if failed := strings.Count(state(s), "1"); 4*failed <= n {
				up = append(up, strconv.Quote(state(s)))
			}
		}
		fmt.Fprintf(&b, `"upStates":[%s],`, strings.Join(up, ","))
	case "transient":
		fmt.Fprintf(&b, `"initial":%q,"time":10,`, state(0))
	}
	fmt.Fprintf(&b, `"measures":[%q]}}`, measure)
	t.doc = b.Bytes()
	return t
}

// faultTree renders the fixed 48-event, 30-gate tree: 20 AND gates over
// three events each, 7 OR gates sharing those AND gates (so events
// repeat across branches), two 2-of-n voting gates, and the top OR. The
// spliced field is the probability of event e00.
func faultTree(num *numbers) *template {
	const events = 48
	t := &template{name: "ft48-top"}
	ev := func(i int) string { return fmt.Sprintf(`{"event":"e%02d"}`, i%events) }
	gate := func(op string, k int, children ...string) string {
		kk := ""
		if k > 0 {
			kk = fmt.Sprintf(`"k":%d,`, k)
		}
		return fmt.Sprintf(`{"op":%q,%s"children":[%s]}`, op, kk, strings.Join(children, ","))
	}
	and := make([]string, 20)
	for j := range and {
		and[j] = gate("and", 0, ev(2*j), ev(2*j+17), ev(5*j+31))
	}
	or := make([]string, 7)
	for k := range or {
		or[k] = gate("or", 0, and[3*k%20], and[(3*k+1)%20], and[(3*k+7)%20], ev(40+k))
	}
	top := gate("or",
		0, gate("atleast", 2, or[0], or[1], or[2], or[3]),
		gate("atleast", 2, or[3], or[4], or[5], or[6], ev(47)))

	var b bytes.Buffer
	b.WriteString(`{"type":"faulttree","name":"ft48-top","faulttree":{"events":[`)
	for i := 0; i < events; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"name":"e%02d","prob":`, i)
		p := num.next(0.002, 0.008)
		if i == 0 {
			t.spliced(p)
			t.off = b.Len()
			b.WriteString(strconv.FormatFloat(p, 'f', 12, 64))
		} else {
			b.WriteString(strconv.FormatFloat(p, 'g', -1, 64))
		}
		b.WriteByte('}')
	}
	fmt.Fprintf(&b, `],"top":%s,"measures":["top"]}}`, top)
	t.doc = b.Bytes()
	return t
}

// fixture is one bundled model document.
type fixture struct {
	name string
	doc  []byte
}

// loadFixtures reads every models/*.json under root except the
// deliberately ill-formed lint fixture, in name order.
func loadFixtures(root string) ([]fixture, error) {
	paths, err := filepath.Glob(filepath.Join(root, "models", "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []fixture
	for _, p := range paths {
		if filepath.Base(p) == "broken_rowsum.json" {
			continue
		}
		doc, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		out = append(out, fixture{name: filepath.Base(p), doc: doc})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("relperf: no model fixtures under %s", filepath.Join(root, "models"))
	}
	return out, nil
}

// sweepSpec is the sweep workload's job: E15's uncertainty sweep over
// models/repairfarm.json, the first failure rate scaled by a median-1
// lognormal factor, in 500-sample shards.
func sweepSpec(model []byte, samples int, seed uint64) []byte {
	doc, err := json.Marshal(map[string]any{
		"model":   json.RawMessage(model),
		"measure": "availability",
		"params": []map[string]any{{
			"name":  "lambda0",
			"dist":  map[string]any{"kind": "lognormal", "mu": 0, "sigma": 0.25},
			"from":  "0down",
			"to":    "1down",
			"scale": true,
		}},
		"samples":    samples,
		"shard_size": 500,
		"seed":       seed,
	})
	if err != nil {
		panic(err) // only static types above; cannot fail
	}
	return doc
}
