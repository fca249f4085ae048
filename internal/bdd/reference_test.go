package bdd

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// refManager is the reference BDD the Manager is checked against: map
// unique and ITE tables, AndN and OrN folded from the first operand, and
// a memoized recursive Prob. The Manager must build the same canonical
// diagram and evaluate it to the same bits.
type refManager struct {
	nodes  []node
	unique map[node]Ref
	iteC   map[[3]Ref]Ref
	nvars  int

	iteHits, iteMisses int64
}

func newRef(nvars int) *refManager {
	return &refManager{
		nodes:  []node{{level: terminalLevel}, {level: terminalLevel}},
		unique: make(map[node]Ref),
		iteC:   make(map[[3]Ref]Ref),
		nvars:  nvars,
	}
}

func (m *refManager) stats() Stats {
	return Stats{Nodes: len(m.nodes), ITEHits: m.iteHits, ITEMisses: m.iteMisses}
}

func (m *refManager) mk(level int32, low, high Ref) Ref {
	if low == high {
		return low
	}
	key := node{level: level, low: low, high: high}
	if r, ok := m.unique[key]; ok {
		return r
	}
	r := Ref(len(m.nodes))
	m.nodes = append(m.nodes, key)
	m.unique[key] = r
	return r
}

func (m *refManager) variable(i int) Ref { return m.mk(int32(i), False, True) }

func (m *refManager) cofactors(f Ref, level int32) (Ref, Ref) {
	n := m.nodes[f]
	if n.level != level {
		return f, f
	}
	return n.low, n.high
}

func (m *refManager) ite(f, g, h Ref) Ref {
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	}
	key := [3]Ref{f, g, h}
	if r, ok := m.iteC[key]; ok {
		m.iteHits++
		return r
	}
	m.iteMisses++
	lv := m.nodes[f].level
	if l := m.nodes[g].level; l < lv {
		lv = l
	}
	if l := m.nodes[h].level; l < lv {
		lv = l
	}
	f0, f1 := m.cofactors(f, lv)
	g0, g1 := m.cofactors(g, lv)
	h0, h1 := m.cofactors(h, lv)
	r := m.mk(lv, m.ite(f0, g0, h0), m.ite(f1, g1, h1))
	m.iteC[key] = r
	return r
}

func (m *refManager) andN(fs ...Ref) Ref {
	r := True
	for _, f := range fs {
		r = m.ite(r, f, False)
	}
	return r
}

func (m *refManager) orN(fs ...Ref) Ref {
	r := False
	for _, f := range fs {
		r = m.ite(r, True, f)
	}
	return r
}

func (m *refManager) kOfN(k int, fs []Ref) Ref {
	if k == 0 {
		return True
	}
	thr := make([]Ref, k+1)
	thr[0] = True
	for j := 1; j <= k; j++ {
		thr[j] = False
	}
	for _, f := range fs {
		for j := k; j >= 1; j-- {
			thr[j] = m.ite(f, thr[j-1], thr[j])
		}
	}
	return thr[k]
}

func (m *refManager) nodeCount(f Ref) int {
	seen := make(map[Ref]bool)
	var rec func(Ref)
	rec = func(r Ref) {
		if r == True || r == False || seen[r] {
			return
		}
		seen[r] = true
		rec(m.nodes[r].low)
		rec(m.nodes[r].high)
	}
	rec(f)
	return len(seen)
}

func (m *refManager) prob(f Ref, p []float64) float64 {
	memo := make(map[Ref]float64)
	var rec func(Ref) float64
	rec = func(r Ref) float64 {
		switch r {
		case False:
			return 0
		case True:
			return 1
		}
		if v, ok := memo[r]; ok {
			return v
		}
		n := m.nodes[r]
		pi := p[n.level]
		v := (1-pi)*rec(n.low) + pi*rec(n.high)
		memo[r] = v
		return v
	}
	return rec(f)
}

// minimalCutSets borrows the reference's nodes into a Manager, whose
// MinimalCutSets reads nothing but the node slice.
func (m *refManager) minimalCutSets(f Ref) []CutSet {
	return (&Manager{nodes: m.nodes, nvars: m.nvars}).MinimalCutSets(f)
}

// formulaSource chooses a random formula's shape.
type formulaSource interface {
	// intn returns a value in [0, n).
	intn(n int) int
	// prob returns a variable probability in [0, 1].
	prob() float64
}

type randSource struct{ r *rand.Rand }

func (s randSource) intn(n int) int { return s.r.Intn(n) }
func (s randSource) prob() float64  { return s.r.Float64() }

// byteSource reads choices from fuzz input; once it runs dry every choice
// is 0.
type byteSource struct{ b []byte }

func (s *byteSource) next() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

func (s *byteSource) intn(n int) int { return int(s.next()) % n }
func (s *byteSource) prob() float64  { return float64(s.next()) / 255 }

// pair is one formula built in both managers.
type pair struct{ got, want Ref }

// formula builds a random formula over nvars variables in both managers
// and reports whether it used AndN or OrN anywhere.
type formula struct {
	m     *Manager
	ref   *refManager
	src   formulaSource
	nvars int
	fold  bool
}

func (g *formula) build(depth int) pair {
	if depth == 0 || g.src.intn(4) == 0 {
		v := g.src.intn(g.nvars)
		x, err := g.m.Var(v)
		if err != nil {
			panic(err)
		}
		return pair{x, g.ref.variable(v)}
	}
	switch g.src.intn(7) {
	case 0:
		a, b := g.build(depth-1), g.build(depth-1)
		return pair{g.m.And(a.got, b.got), g.ref.ite(a.want, b.want, False)}
	case 1:
		a, b := g.build(depth-1), g.build(depth-1)
		return pair{g.m.Or(a.got, b.got), g.ref.ite(a.want, True, b.want)}
	case 2:
		a := g.build(depth - 1)
		return pair{g.m.Not(a.got), g.ref.ite(a.want, False, True)}
	case 3:
		a, b, c := g.build(depth-1), g.build(depth-1), g.build(depth-1)
		return pair{g.m.ITE(a.got, b.got, c.got), g.ref.ite(a.want, b.want, c.want)}
	case 4, 5:
		got, want := g.operands(depth)
		g.fold = true
		if g.src.intn(2) == 0 {
			return pair{g.m.AndN(got...), g.ref.andN(want...)}
		}
		return pair{g.m.OrN(got...), g.ref.orN(want...)}
	default:
		got, want := g.operands(depth)
		k := g.src.intn(len(got) + 1)
		r, err := g.m.KofN(k, got)
		if err != nil {
			panic(err)
		}
		return pair{r, g.ref.kOfN(k, want)}
	}
}

// operands builds zero to four sub-formulas for an n-ary connective.
func (g *formula) operands(depth int) (got, want []Ref) {
	n := g.src.intn(5)
	for i := 0; i < n; i++ {
		a := g.build(depth - 1)
		got = append(got, a.got)
		want = append(want, a.want)
	}
	return got, want
}

// checkAgainstReference builds one random formula in a Manager and in the
// reference and compares what the solvers read off the diagram.
func checkAgainstReference(t *testing.T, src formulaSource) {
	t.Helper()
	nvars := 1 + src.intn(12)
	g := &formula{m: New(nvars), ref: newRef(nvars), src: src, nvars: nvars}
	f := g.build(1 + src.intn(4))
	if got, want := g.m.NodeCount(f.got), g.ref.nodeCount(f.want); got != want {
		t.Fatalf("NodeCount = %d, reference %d", got, want)
	}
	if !g.fold {
		if got, want := g.m.Stats(), g.ref.stats(); got != want {
			t.Fatalf("Stats = %+v, reference %+v", got, want)
		}
	}
	if got, want := g.m.MinimalCutSets(f.got), g.ref.minimalCutSets(f.want); !reflect.DeepEqual(got, want) {
		t.Fatalf("MinimalCutSets = %v, reference %v", got, want)
	}
	p := make([]float64, nvars)
	for i := range p {
		p[i] = src.prob()
	}
	got, err := g.m.Prob(f.got, p)
	if err != nil {
		t.Fatal(err)
	}
	// A second call reads the cached pass order and reused scratch.
	again, err := g.m.Prob(f.got, p)
	if err != nil {
		t.Fatal(err)
	}
	want := g.ref.prob(f.want, p)
	if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(again) != math.Float64bits(want) {
		t.Fatalf("Prob = %v then %v, reference %v (p=%v)", got, again, want, p)
	}
}

// TestBDDMatchesReference checks 10,000 seeded random formulas over And,
// Or, Not, ITE, AndN, OrN and KofN: the Manager's diagram has the
// reference's node count and minimal cut sets, its Prob has the
// reference's bits, and a construction with no n-ary fold makes exactly
// the reference's nodes and ITE hits and misses.
func TestBDDMatchesReference(t *testing.T) {
	src := randSource{rand.New(rand.NewSource(1))}
	for i := 0; i < 10000; i++ {
		checkAgainstReference(t, src)
	}
}

func FuzzBDDMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{11, 3, 4, 4, 9, 1, 2, 0, 3, 5, 7, 128, 64, 200})
	f.Add([]byte{5, 2, 6, 6, 3, 1, 0, 2, 1, 4, 2, 1, 0, 9, 17, 33, 250, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		checkAgainstReference(t, &byteSource{b: b})
	})
}
