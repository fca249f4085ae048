package lint

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/modelio"
	"repro/internal/relstruct"
)

// This file keeps the CTMC checks as they were before CheckCTMC read one
// relstruct report for every graph question: refCheckCTMC with its own
// adjacency, reachability walk and Tarjan, and refCheckCTMCStructure with
// a second analysis and a string-keyed reachability walk. They are the
// oracle for CheckCTMC, which must give the same diagnostics and the
// report that modelio.StructReport computes.

// refNeedsSteadyState says whether m requests a measure the long-run
// distribution answers, as the linter's old CTMC input recorded it.
func refNeedsSteadyState(m *modelio.CTMCSpec) bool {
	for _, meas := range m.Measures {
		if meas == "steadystate" || meas == "availability" {
			return true
		}
	}
	return false
}

// refCheckCTMC is CheckCTMC before it read the relstruct report: its own
// map adjacency, reachability walk and recursive Tarjan.
func refCheckCTMC(m *modelio.CTMCSpec) []Diagnostic {
	var ds []Diagnostic
	states := map[string]int{} // name -> index in order of first appearance
	var names []string
	intern := func(name string) int {
		if i, ok := states[name]; ok {
			return i
		}
		i := len(names)
		states[name] = i
		names = append(names, name)
		return i
	}
	adj := map[int][]int{}
	seen := map[[2]string]bool{}
	for i, tr := range m.Transitions {
		path := fmt.Sprintf("ctmc.transitions[%d]", i)
		if tr.From == "" || tr.To == "" {
			ds = errf(ds, CodeCTMCEmptyState, path, "transition must name both endpoint states")
			continue
		}
		from, to := intern(tr.From), intern(tr.To)
		if tr.Rate <= 0 || math.IsNaN(tr.Rate) || math.IsInf(tr.Rate, 0) {
			ds = errf(ds, CodeCTMCBadRate, path+".rate",
				"rate %g is not a positive finite number", tr.Rate)
		}
		if tr.From == tr.To {
			ds = warnf(ds, CodeCTMCSelfLoop, path,
				"self-loop on state %q has no effect in a CTMC and is dropped by the solver", tr.From)
			continue
		}
		key := [2]string{tr.From, tr.To}
		if seen[key] {
			ds = warnf(ds, CodeCTMCDuplicate, path,
				"duplicate transition %s -> %s; rates will be summed", tr.From, tr.To)
		}
		seen[key] = true
		adj[from] = append(adj[from], to)
	}

	known := func(name, path string) {
		if _, ok := states[name]; !ok {
			ds = errf(ds, CodeCTMCUnknownState, path,
				"state %q does not appear in any transition", name)
		}
	}
	if m.Initial != "" {
		known(m.Initial, "ctmc.initial")
	}
	for i, s := range m.UpStates {
		known(s, fmt.Sprintf("ctmc.upStates[%d]", i))
	}
	for i, s := range m.Absorbing {
		known(s, fmt.Sprintf("ctmc.absorbing[%d]", i))
	}

	n := len(names)
	if n == 0 {
		return ds
	}

	// Reachability from the initial state.
	if _, ok := states[m.Initial]; m.Initial != "" && ok {
		reach := make([]bool, n)
		stack := []int{states[m.Initial]}
		reach[states[m.Initial]] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range adj[v] {
				if !reach[w] {
					reach[w] = true
					stack = append(stack, w)
				}
			}
		}
		for i, r := range reach {
			if !r {
				ds = warnf(ds, CodeCTMCUnreachable, "ctmc",
					"state %q is unreachable from initial state %q", names[i], m.Initial)
			}
		}
	}

	declared := map[string]bool{}
	for _, s := range m.Absorbing {
		declared[s] = true
	}

	// Absorbing states (no outgoing transitions).
	hasOut := make([]bool, n)
	for v, ws := range adj {
		if len(ws) > 0 {
			hasOut[v] = true
		}
	}
	for i := 0; i < n; i++ {
		if !hasOut[i] && !declared[names[i]] && refNeedsSteadyState(m) {
			ds = warnf(ds, CodeCTMCAbsorbing, "ctmc",
				"state %q is absorbing; the steady-state/availability result will concentrate all probability in it", names[i])
		}
	}

	// Closed communicating classes via Tarjan SCC: more than one closed
	// class means the steady-state distribution depends on the initial
	// state and the linear solve is singular in a way availability models
	// do not expect.
	comp := refTarjan(n, adj)
	closed := map[int]bool{}
	for c := range comp.members {
		closed[c] = true
	}
	for v, ws := range adj {
		for _, w := range ws {
			if comp.of[v] != comp.of[w] {
				closed[comp.of[v]] = false
			}
		}
	}
	var closedClasses [][]int
	for c, isClosed := range closed {
		if !isClosed {
			continue
		}
		// Classes made entirely of declared absorbing states are the
		// intended targets of MTTA-style measures.
		allDeclared := true
		for _, v := range comp.members[c] {
			if !declared[names[v]] {
				allDeclared = false
				break
			}
		}
		if !allDeclared {
			closedClasses = append(closedClasses, comp.members[c])
		}
	}
	if len(closedClasses) > 1 {
		sev := warnf
		if refNeedsSteadyState(m) {
			sev = errf
		}
		ds = sev(ds, CodeCTMCReducible, "ctmc",
			"chain has %d closed communicating classes; the long-run distribution is not unique", len(closedClasses))
	}
	return ds
}

// refSCC maps vertices to strongly connected components.
type refSCC struct {
	of      []int         // vertex -> component id
	members map[int][]int // component id -> vertices
}

// refTarjan computes strongly connected components of the directed graph
// with n vertices and adjacency adj.
func refTarjan(n int, adj map[int][]int) refSCC {
	res := refSCC{of: make([]int, n), members: map[int][]int{}}
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	next, comps := 0, 0
	var strongconnect func(v int)
	strongconnect = func(v int) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if index[w] < 0 {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			id := comps
			comps++
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				res.of[w] = id
				res.members[id] = append(res.members[id], w)
				if w == v {
					break
				}
			}
		}
	}
	for v := 0; v < n; v++ {
		if index[v] < 0 {
			strongconnect(v)
		}
	}
	return res
}

// refCheckCTMCStructure is the structure pass that ran after
// refCheckCTMC on chains it found no error in: a second numbering of the
// states, its own relstruct.Analyze, and the string-keyed STR003 walk.
func refCheckCTMCStructure(m *modelio.CTMCSpec) []Diagnostic {
	var nts []relstruct.NamedTransition
	for _, tr := range m.Transitions {
		if tr.From == "" || tr.To == "" {
			continue
		}
		nts = append(nts, relstruct.NamedTransition{From: tr.From, To: tr.To, Weight: tr.Rate})
	}
	if len(nts) == 0 {
		return nil
	}
	in := relstruct.FromNamed(nts, false)
	in.Seed = relstruct.SeedSets(in.Names, m.UpStates, m.Absorbing)
	rep, err := relstruct.Analyze(in)
	if err != nil {
		return nil
	}
	var unreachable []string
	if m.Initial != "" {
		unreachable = refUnreachableRecurrent(rep, m)
	}
	return checkStructReport(rep, m, unreachable)
}

// refUnreachableRecurrent lists a representative of every recurrent class
// with no path from the initial state.
func refUnreachableRecurrent(rep *relstruct.StructReport, m *modelio.CTMCSpec) []string {
	adj := map[string][]string{}
	for _, tr := range m.Transitions {
		if tr.From == "" || tr.To == "" {
			continue
		}
		adj[tr.From] = append(adj[tr.From], tr.To)
	}
	if _, ok := adj[m.Initial]; !ok {
		// The initial state may still be a sink that appears only as a
		// target; reachability then covers just itself.
		found := false
		for _, tr := range m.Transitions {
			if tr.To == m.Initial || tr.From == m.Initial {
				found = true
				break
			}
		}
		if !found {
			return nil
		}
	}
	reach := map[string]bool{m.Initial: true}
	stack := []string{m.Initial}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if !reach[w] {
				reach[w] = true
				stack = append(stack, w)
			}
		}
	}
	var out []string
	for _, cl := range rep.Classes {
		if !cl.Recurrent {
			continue
		}
		hit := false
		for _, s := range cl.States {
			if reach[s] {
				hit = true
				break
			}
		}
		if !hit {
			out = append(out, cl.States[0])
		}
	}
	return out
}

// refLint is the old lint of one chain: refCheckCTMC, then the structure
// pass when it found no error, in Sort order.
func refLint(m *modelio.CTMCSpec) []Diagnostic {
	ds := refCheckCTMC(m)
	if !HasErrors(ds) {
		ds = append(ds, refCheckCTMCStructure(m)...)
	}
	Sort(ds)
	return ds
}

// refReport is the report modelio.StructReport computes for the chain:
// FromNamed over the transitions that name both endpoints, seeded with
// the up and absorbing sets.
func refReport(m *modelio.CTMCSpec) (*relstruct.StructReport, error) {
	var nts []relstruct.NamedTransition
	for _, tr := range m.Transitions {
		if tr.From != "" && tr.To != "" {
			nts = append(nts, relstruct.NamedTransition{From: tr.From, To: tr.To, Weight: tr.Rate})
		}
	}
	in := relstruct.FromNamed(nts, false)
	if in.States > 0 {
		in.Seed = relstruct.SeedSets(in.Names, m.UpStates, m.Absorbing)
	}
	return relstruct.Analyze(in)
}

// referenceMismatch says how CheckCTMC disagrees with the reference on m,
// or returns "": the diagnostics must be the same once sorted, and the
// report must marshal, name, class and lump like refReport's (and be nil
// exactly when that fails).
func referenceMismatch(m *modelio.CTMCSpec) string {
	got, rep := CheckCTMC(m)
	Sort(got)
	if want := refLint(m); !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("diagnostics differ on %+v\ngot:  %v\nwant: %v", m, got, want)
	}
	want, err := refReport(m)
	if err != nil || rep == nil {
		if (err != nil) != (rep == nil) {
			return fmt.Sprintf("report %v, reference error %v, on %+v", rep, err, m)
		}
		return ""
	}
	gotJSON, gerr := json.Marshal(rep)
	wantJSON, werr := json.Marshal(want)
	if gerr != nil || werr != nil || string(gotJSON) != string(wantJSON) {
		return fmt.Sprintf("report differs on %+v\ngot:  %s (%v)\nwant: %s (%v)", m, gotJSON, gerr, wantJSON, werr)
	}
	if !reflect.DeepEqual(rep.StateNames(), want.StateNames()) || !reflect.DeepEqual(rep.ClassOf(), want.ClassOf()) ||
		!reflect.DeepEqual(rep.Lumping.BlockOf(), want.Lumping.BlockOf()) {
		return fmt.Sprintf("report numbering differs on %+v", m)
	}
	return ""
}

// chainNames is the alphabet random chains draw their states from.
var chainNames = []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}

// oddRates are the rates a random transition draws 1 time in 32: the
// invalid ones (CT001) and the extremes that make a chain stiff (STR004)
// or span beyond double-precision comfort (STR010).
var oddRates = []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1), 1e-9, 1e9, 1e12}

// chainFromBytes decodes a chain of 1–12 named states from b, reading
// zeros past its end. Byte 0 holds the steady-state flag (bit 0) and the
// alphabet size; byte 1 the transition count (0–24); byte 2 the initial
// state (none, an unknown name, or a state); bytes 3–5 the up set and
// bytes 6–10 the sparser absorbing set, each possibly with an unknown or
// empty name; then three bytes per transition: from, to (255 is the
// empty name) and rate (1, 2 or 0.5, or 1 time in 32 an odd rate).
func chainFromBytes(b []byte) *modelio.CTMCSpec {
	next := func() byte {
		if len(b) == 0 {
			return 0
		}
		c := b[0]
		b = b[1:]
		return c
	}
	m := &modelio.CTMCSpec{}
	h := next()
	if h&1 == 1 {
		m.Measures = []string{"steadystate"}
	}
	k := 1 + int(h>>1)%len(chainNames)
	name := func(c byte) string {
		if c == 255 {
			return ""
		}
		return chainNames[int(c)%k]
	}
	set := func(lo, hi, extra byte) []string {
		var out []string
		for i := 0; i < k; i++ {
			if (int(lo)|int(hi)<<8)>>i&1 == 1 {
				out = append(out, chainNames[i])
			}
		}
		switch {
		case extra >= 240:
			out = append(out, "ghost")
		case extra >= 236:
			out = append(out, "")
		}
		return out
	}
	nt := int(next() % 25)
	switch c := next(); {
	case c < 48:
	case c < 56:
		m.Initial = "ghost"
	default:
		m.Initial = chainNames[int(c)%k]
	}
	m.UpStates = set(next(), next(), next())
	m.Absorbing = set(next()&next(), next()&next(), next())
	for i := 0; i < nt; i++ {
		tr := modelio.CTMCTransition{From: name(next()), To: name(next())}
		switch c := next(); {
		case c >= 248:
			tr.Rate = oddRates[c-248]
		default:
			tr.Rate = []float64{1, 2, 0.5, 1}[c%4]
		}
		m.Transitions = append(m.Transitions, tr)
	}
	return m
}

// chainBytes draws the bytes of one random chain.
func chainBytes(seed int64) []byte {
	b := make([]byte, 11+3*24)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestCheckCTMCMatchesReference runs CheckCTMC and the reference over
// 10,000 seeded random chains and checks that the draw reached every
// case the rewrite could get wrong.
func TestCheckCTMCMatchesReference(t *testing.T) {
	const seeds = 10000
	seen := map[string]int{}
	for seed := int64(0); seed < seeds; seed++ {
		m := chainFromBytes(chainBytes(seed))
		if msg := referenceMismatch(m); msg != "" {
			t.Fatalf("seed %d: %s", seed, msg)
		}
		ds, rep := CheckCTMC(m)
		for _, d := range ds {
			seen[d.Code]++
		}
		if refNeedsSteadyState(m) {
			seen["steady-state"]++
		}
		if rep == nil {
			continue
		}
		if rep.RecurrentClasses > 1 {
			seen["closed classes"]++
		}
		for _, cl := range rep.Classes {
			if cl.Recurrent && len(m.Absorbing) > 0 && allDeclared(cl.States, declaredSet(m)) {
				seen["declared-absorbing class"]++
				break
			}
		}
		if m.Initial != "" && sinkOnly(m, m.Initial) {
			seen["sink-only initial"]++
		}
	}
	t.Logf("cases reached over %d chains: %v", seeds, seen)
	for _, c := range []string{
		CodeCTMCBadRate, CodeCTMCSelfLoop, CodeCTMCDuplicate, CodeCTMCUnknownState, CodeCTMCUnreachable,
		CodeCTMCReducible, CodeCTMCAbsorbing, CodeCTMCEmptyState,
		CodeStructTransientMass, CodeStructUnreachableClass, CodeStructStiff, CodeStructLumpable,
		CodeStructTransientInitial, CodeStructDisconnected, CodeStructSolverHint, CodeStructRateSpan,
		"steady-state", "closed classes", "declared-absorbing class", "sink-only initial",
	} {
		if seen[c] < 10 {
			t.Errorf("only %d of %d chains reached %s", seen[c], seeds, c)
		}
	}
}

func declaredSet(m *modelio.CTMCSpec) map[string]bool {
	out := map[string]bool{}
	for _, s := range m.Absorbing {
		out[s] = true
	}
	return out
}

// sinkOnly reports whether s is a transition target but never a source.
func sinkOnly(m *modelio.CTMCSpec, s string) bool {
	target := false
	for _, tr := range m.Transitions {
		if tr.From == s {
			return false
		}
		target = target || tr.To == s
	}
	return target
}

func FuzzCheckCTMC(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(chainBytes(seed))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 24, 60, 0xff, 0x0f, 0, 0xff, 0xff, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if msg := referenceMismatch(chainFromBytes(data)); msg != "" {
			t.Fatal(msg)
		}
	})
}
