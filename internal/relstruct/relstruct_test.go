package relstruct

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// edge is one transition of a test chain, between named states.
type edge struct {
	from, to string
	w        float64
}

// chain builds an Input from named transitions.
func chain(discrete bool, trans ...edge) Input {
	return fromNamed(trans, discrete)
}

// fromNamed numbers the states in order of first appearance, as
// markov.CTMC and the model documents do.
func fromNamed(trans []edge, discrete bool) Input {
	index := map[string]int{}
	in := Input{Discrete: discrete}
	id := func(name string) int {
		i, ok := index[name]
		if !ok {
			i = len(in.Names)
			index[name] = i
			in.Names = append(in.Names, name)
		}
		return i
	}
	for _, t := range trans {
		in.From = append(in.From, id(t.from))
		in.To = append(in.To, id(t.to))
		in.Weight = append(in.Weight, t.w)
	}
	in.States = len(in.Names)
	return in
}

func TestIrreducibleBirthDeath(t *testing.T) {
	rep, err := Analyze(chain(false,
		edge{"up", "deg", 0.5},
		edge{"deg", "down", 0.4},
		edge{"down", "deg", 1.2},
		edge{"deg", "up", 2.0},
	))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Irreducible || rep.RecurrentClasses != 1 || rep.TransientStates != 0 {
		t.Fatalf("want irreducible single recurrent class, got %+v", rep)
	}
	if rep.Components != 1 {
		t.Fatalf("components = %d, want 1", rep.Components)
	}
	if len(rep.Classes) != 1 || !rep.Classes[0].Recurrent || rep.Classes[0].Absorbing {
		t.Fatalf("classes = %+v", rep.Classes)
	}
	if got := rep.Classes[0].RateRatio; math.Abs(got-5.0) > 1e-12 {
		t.Fatalf("rate ratio = %g, want 5", got)
	}
	if rep.Stiffness.Stiff {
		t.Fatalf("chain misreported stiff: %+v", rep.Stiffness)
	}
	// Distinct rates: every state is its own block.
	if rep.Lumping.Blocks != 3 || rep.Lumping.Lumpable {
		t.Fatalf("lumping = %+v", rep.Lumping)
	}
	if rep.Hint.Method != "" || rep.Hint.Reduce != "" {
		t.Fatalf("unexpected hint %+v", rep.Hint)
	}
}

func TestAbsorbingClassification(t *testing.T) {
	rep, err := Analyze(chain(false,
		edge{"ok", "deg", 0.2},
		edge{"deg", "ok", 1.0},
		edge{"deg", "failed", 0.1},
	))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Irreducible {
		t.Fatal("chain with absorbing state reported irreducible")
	}
	if rep.RecurrentClasses != 1 || rep.TransientStates != 2 {
		t.Fatalf("recurrent=%d transient=%d, want 1/2", rep.RecurrentClasses, rep.TransientStates)
	}
	if !reflect.DeepEqual(rep.AbsorbingStates, []string{"failed"}) {
		t.Fatalf("absorbing = %v", rep.AbsorbingStates)
	}
	// {ok,deg} communicate and come first (smallest member order).
	if !reflect.DeepEqual(rep.Classes[0].States, []string{"ok", "deg"}) || rep.Classes[0].Recurrent {
		t.Fatalf("class 0 = %+v", rep.Classes[0])
	}
	if !rep.Classes[1].Absorbing {
		t.Fatalf("class 1 = %+v", rep.Classes[1])
	}
	if rep.Hint.Reduce != "restrict-recurrent" {
		t.Fatalf("hint = %+v", rep.Hint)
	}
	if got := rep.RecurrentMembers(0); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("recurrent members = %v", got)
	}
}

func TestMultipleRecurrentClasses(t *testing.T) {
	rep, err := Analyze(chain(false,
		edge{"start", "a", 1},
		edge{"start", "b", 1},
		edge{"a", "a2", 1},
		edge{"a2", "a", 1},
		edge{"b", "b2", 1},
		edge{"b2", "b", 1},
	))
	if err != nil {
		t.Fatal(err)
	}
	if rep.RecurrentClasses != 2 || rep.TransientStates != 1 {
		t.Fatalf("recurrent=%d transient=%d, want 2/1", rep.RecurrentClasses, rep.TransientStates)
	}
	if rep.Hint.Reduce == "restrict-recurrent" {
		t.Fatalf("restrict hint with two recurrent classes: %+v", rep.Hint)
	}
}

func TestStiffnessHint(t *testing.T) {
	rep, err := Analyze(chain(false,
		edge{"up", "down", 1e-9},
		edge{"down", "up", 5e6},
	))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Stiffness.Stiff {
		t.Fatalf("stiffness = %+v", rep.Stiffness)
	}
	if rep.Stiffness.MaxClassRatio < 1e15 {
		t.Fatalf("class ratio = %g", rep.Stiffness.MaxClassRatio)
	}
	if rep.Hint.Method != "gth" {
		t.Fatalf("hint = %+v", rep.Hint)
	}
}

func TestDTMCPeriodicity(t *testing.T) {
	rep, err := Analyze(chain(true,
		edge{"a", "b", 1},
		edge{"b", "a", 1},
	))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Classes[0].Period != 2 {
		t.Fatalf("period = %d, want 2", rep.Classes[0].Period)
	}
	if rep.Hint.Method != "gth" {
		t.Fatalf("hint = %+v", rep.Hint)
	}

	// A self-loop makes the class aperiodic.
	rep, err = Analyze(chain(true,
		edge{"a", "b", 0.5},
		edge{"b", "a", 1},
		edge{"a", "a", 0.5},
	))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Classes[0].Period != 1 {
		t.Fatalf("period = %d, want 1", rep.Classes[0].Period)
	}
	if rep.Hint.Method != "" {
		t.Fatalf("hint = %+v", rep.Hint)
	}
}

// TestLumpableSymmetricPair checks the coarsest partition of two
// identical independent components: the detailed 4-state chain lumps to
// the 3-state failure-count chain once up/down states are seeded apart.
func TestLumpableSymmetricPair(t *testing.T) {
	lam, mu := 0.01, 1.0
	in := chain(false,
		edge{"00", "01", lam},
		edge{"00", "10", lam},
		edge{"01", "11", lam},
		edge{"10", "11", lam},
		edge{"01", "00", mu},
		edge{"10", "00", mu},
		edge{"11", "01", mu},
		edge{"11", "10", mu},
	)
	in.Seed = SeedSets(in.Names, []string{"00", "01", "10"})
	rep, err := Analyze(in)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Lumping.Lumpable || rep.Lumping.Blocks != 3 {
		t.Fatalf("lumping = %+v", rep.Lumping)
	}
	want := [][]string{{"00"}, {"01", "10"}, {"11"}}
	if !reflect.DeepEqual(rep.Lumping.Partition, want) {
		t.Fatalf("partition = %v, want %v", rep.Lumping.Partition, want)
	}
	if got := rep.Lumping.BlockOf(); !reflect.DeepEqual(got, []int{0, 1, 1, 2}) {
		t.Fatalf("blockOf = %v", got)
	}
	if rep.Hint.Reduce != "lump" {
		t.Fatalf("hint = %+v", rep.Hint)
	}
}

// TestSeedKeepsSetsApart: a seed split must never be merged back even
// when outflows agree perfectly.
func TestSeedKeepsSetsApart(t *testing.T) {
	in := chain(false,
		edge{"a", "c", 1},
		edge{"b", "c", 1},
		edge{"c", "a", 0.5},
		edge{"c", "b", 0.5},
	)
	in.Seed = SeedSets(in.Names, []string{"a"})
	rep, err := Analyze(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, block := range rep.Lumping.Partition {
		for _, s := range block {
			if s == "a" && len(block) > 1 {
				t.Fatalf("seeded state merged: %v", block)
			}
		}
	}
	if rep.Lumping.Blocks != 3 {
		t.Fatalf("blocks = %d, want 3 (a alone, b alone after split, c)", rep.Lumping.Blocks)
	}
}

func TestAsymmetricNotLumpable(t *testing.T) {
	rep, err := Analyze(chain(false,
		edge{"x", "y", 1},
		edge{"y", "z", 2},
		edge{"z", "x", 3},
	))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lumping.Lumpable {
		t.Fatalf("asymmetric cycle reported lumpable: %+v", rep.Lumping)
	}
}

func TestWeakComponents(t *testing.T) {
	rep, err := Analyze(chain(false,
		edge{"a", "b", 1},
		edge{"b", "a", 1},
		edge{"c", "d", 1},
		edge{"d", "c", 1},
	))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Components != 2 {
		t.Fatalf("components = %d, want 2", rep.Components)
	}
	if rep.RecurrentClasses != 2 {
		t.Fatalf("recurrent classes = %d, want 2", rep.RecurrentClasses)
	}
}

// TestReachable: reachability follows transitions forward only, counts
// the start state, and is not fooled by self-loops or repeated pairs.
func TestReachable(t *testing.T) {
	rep, err := Analyze(chain(false,
		edge{"a", "b", 1},
		edge{"b", "b", 1},
		edge{"b", "c", 1},
		edge{"b", "c", 2},
		edge{"d", "a", 1},
		edge{"e", "e", 1},
	))
	if err != nil {
		t.Fatal(err)
	}
	for from, want := range map[int][]bool{
		0: {true, true, true, false, false},
		2: {false, false, true, false, false},
		3: {true, true, true, true, false},
		4: {false, false, false, false, true},
	} {
		if got := rep.Reachable(from); !reflect.DeepEqual(got, want) {
			t.Errorf("Reachable(%s) = %v, want %v", rep.StateNames()[from], got, want)
		}
	}
}

func TestInputValidation(t *testing.T) {
	if _, err := Analyze(Input{}); err == nil {
		t.Fatal("empty input did not error")
	}
	if _, err := Analyze(Input{States: 2, From: []int{0}, To: []int{5}, Weight: []float64{1}}); err == nil {
		t.Fatal("out-of-range transition did not error")
	}
	if _, err := Analyze(Input{States: 2, From: []int{0}, To: []int{1}}); err == nil {
		t.Fatal("transition without a weight did not error")
	}
	if _, err := Analyze(Input{States: 2, Seed: []int{0}}); err == nil {
		t.Fatal("short seed did not error")
	}
}

// TestDeepChainIterativeSCC guards the iterative Tarjan against stack
// overflow on long ladders (the recursive form dies around 1e5 frames
// under -race).
func TestDeepChainIterativeSCC(t *testing.T) {
	const n = 20000
	trans := make([]edge, 0, 2*n)
	name := func(i int) string { return "s" + itoa(i) }
	for i := 0; i < n-1; i++ {
		trans = append(trans, edge{name(i), name(i + 1), 1.0})
		trans = append(trans, edge{name(i + 1), name(i), 2.0})
	}
	rep, err := Analyze(fromNamed(trans, false))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Irreducible {
		t.Fatal("ladder not irreducible")
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [12]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}

// TestAdjacencyMatchesAppends: the adjacency Analyze carves from one
// backing array holds what appending each transition to its state's own
// list held, row for row and in transition order.
func TestAdjacencyMatchesAppends(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(12)
		in := Input{States: n}
		for k := rng.Intn(4 * n); k > 0; k-- {
			in.From = append(in.From, rng.Intn(n))
			in.To = append(in.To, rng.Intn(n))
			in.Weight = append(in.Weight, rng.Float64())
		}
		rep, err := Analyze(in)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]int, n)
		for k, f := range in.From {
			want[f] = append(want[f], in.To[k])
		}
		for s := range want {
			if !slices.Equal(rep.adj[s], want[s]) {
				t.Fatalf("trial %d: state %d adjacency %v, appends give %v", trial, s, rep.adj[s], want[s])
			}
		}
	}
}
