package relstruct

import (
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"testing"
)

// splitBlockFirstFit is split with its tolerance merge done the direct
// way: each exact group is compared with every earlier representative,
// in order, and joins the first that matches. It is the oracle split
// must agree with, group for group and in order.
func splitBlockFirstFit(members []int, sigs []sig, tol float64) [][]int {
	if len(members) <= 1 {
		return [][]int{members}
	}
	byKey := map[string]int{}
	var groups [][]int
	var groupSig []sig
	var keyBuf []byte
	for i, s := range members {
		keyBuf = sigs[i].appendKey(keyBuf[:0])
		gi, ok := byKey[string(keyBuf)]
		if !ok {
			gi = len(groups)
			byKey[string(keyBuf)] = gi
			groups = append(groups, nil)
			groupSig = append(groupSig, sigs[i])
		}
		groups[gi] = append(groups[gi], s)
	}
	if len(groups) == 1 {
		return groups
	}
	var merged [][]int
	var reps []sig
	for gi, g := range groups {
		placed := false
		for mi := range merged {
			if sameSig(reps[mi], groupSig[gi], tol) {
				merged[mi] = append(merged[mi], g...)
				placed = true
				break
			}
		}
		if !placed {
			merged = append(merged, g)
			reps = append(reps, groupSig[gi])
		}
	}
	for _, g := range merged {
		sort.Ints(g)
	}
	return merged
}

// checkSplitBlock compares split, on fresh scratch arrays, with the
// first-fit oracle on one input and reports whether the tolerance merge
// joined any exact groups.
func checkSplitBlock(t *testing.T, members []int, sigs []sig, tol float64) bool {
	t.Helper()
	want := splitBlockFirstFit(members, sigs, tol)
	got := new(splitScratch).split(members, sigs, tol)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tol %g, sigs %+v:\nsplit     %v\nfirst fit %v", tol, sigs, got, want)
	}
	exact := map[string]bool{}
	for _, s := range sigs {
		exact[string(s.appendKey(nil))] = true
	}
	return len(want) < len(exact)
}

// TestSplitBlockMatchesFirstFit draws signature sets whose values come
// from a small per-set pool: exact ties, neighbours 1e-10 and 6e-10 apart
// (inside the default tolerance, and chained so that a matches b and b
// matches c while a and c differ, which makes first fit's choice matter),
// 1e-8 apart (outside), exact zeros and −0, an absent block against an
// explicit zero outflow, and equal exits with different outflows. A few
// sets use wider tolerances, up to ones where the exit window is the whole
// index.
func TestSplitBlockMatchesFirstFit(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	spacings := []float64{1e-10, 6e-10, 1e-8, 0.2, 0.45}
	tols := []float64{1e-9, 1e-9, 1e-9, 1e-9, 1e-9, 1e-9, 0, 1e-12, 1e-6, 0.3, 0.5, 0.75, 1.5}
	const sets = 20000
	merges := 0
	for n := 0; n < sets; n++ {
		base := []float64{1, 0.5, 3, 1e-3, 250}[rng.Intn(5)]
		pool := make([]float64, 2+rng.Intn(5))
		for i := range pool {
			switch r := rng.Intn(40); {
			case r < 2:
				pool[i] = 0
			case r < 4:
				pool[i] = math.Copysign(0, -1)
			case r == 4:
				pool[i] = math.NaN()
			case r == 5:
				pool[i] = -base
			default:
				pool[i] = base * (1 + float64(rng.Intn(4))*spacings[rng.Intn(len(spacings))])
			}
		}
		draw := func() float64 { return pool[rng.Intn(len(pool))] }
		members := make([]int, 2+rng.Intn(29))
		sigs := make([]sig, len(members))
		next := rng.Intn(5)
		for i := range members {
			members[i] = next
			next += 1 + rng.Intn(3)
			s := sig{exit: draw()}
			for b := int32(0); b < 5; b++ {
				if rng.Intn(2) == 0 {
					continue
				}
				w := draw()
				if rng.Intn(6) == 0 {
					w = 0
				}
				s.blocks = append(s.blocks, b)
				s.weights = append(s.weights, w)
			}
			sigs[i] = s
		}
		if checkSplitBlock(t, members, sigs, tols[rng.Intn(len(tols))]) {
			merges++
		}
	}
	// The corpus is only useful if the tolerance merge does work in it.
	if merges < sets/10 {
		t.Fatalf("only %d of %d sets merged exact groups under tolerance", merges, sets)
	}
}

// fuzzValues and fuzzTols are the tables FuzzSplitBlock's bytes index
// into, so that short inputs hit ties, near-ties, signed zeros and
// non-finite values instead of scattered random bit patterns.
var (
	fuzzValues = []float64{0, math.Copysign(0, -1), 1, 1 + 1e-10, 1 + 6e-10, 1 + 1.2e-9, 1 + 1e-8,
		2, 0.5, -1, math.NaN(), math.Inf(1), 1e-300, 5e-324, 1.2, 1.6}
	fuzzTols = []float64{1e-9, 0, 1e-12, 1e-6, 0.3, 0.5, 0.75, 2}
)

// decodeSigSet reads a split input from fuzz bytes: a tolerance
// selector, then per member an exit selector, a mask of the blocks 0–4 it
// flows into and one weight selector per block in the mask.
func decodeSigSet(data []byte) ([]int, []sig, float64) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	tol := fuzzTols[next()%len(fuzzTols)]
	var members []int
	var sigs []sig
	for len(data) > 0 && len(members) < 64 {
		s := sig{exit: fuzzValues[next()%len(fuzzValues)]}
		mask := next()
		for b := int32(0); b < 5; b++ {
			if mask>>b&1 == 1 {
				s.blocks = append(s.blocks, b)
				s.weights = append(s.weights, fuzzValues[next()%len(fuzzValues)])
			}
		}
		members = append(members, 2*len(members))
		sigs = append(sigs, s)
	}
	return members, sigs, tol
}

func FuzzSplitBlock(f *testing.F) {
	f.Add([]byte{0, 2, 1, 2, 3, 1, 3, 4, 1, 4, 5, 1, 5})
	f.Add([]byte{0, 3, 3, 0, 1, 3, 3, 1, 0, 4, 0, 5, 3, 2, 0})
	f.Add([]byte{4, 2, 0, 14, 0, 15, 0, 9, 0, 0, 0, 1, 0})
	f.Add([]byte{5, 10, 1, 2, 10, 1, 10, 11, 0, 11, 0, 12, 1, 13})
	f.Fuzz(func(t *testing.T, data []byte) {
		members, sigs, tol := decodeSigSet(data)
		if len(members) > 0 {
			checkSplitBlock(t, members, sigs, tol)
		}
	})
}

// farmInput is the structural input of a repair farm of m heterogeneous
// machines (2^m states; machine i fails at λi and is repaired at μi),
// seeded with the availability up set, at most a quarter of the machines
// down. Every state has its own exit rate, so the refinement splits the
// chain into singletons. With dtmc each row is divided by its exit rate,
// which makes every exit 1 up to rounding: all groups then share one
// exit window and the index prunes nothing.
func farmInput(m int, dtmc bool) Input {
	rng := rand.New(rand.NewSource(int64(m)))
	lam, mu := make([]float64, m), make([]float64, m)
	for i := range lam {
		lam[i] = 0.02 + 0.06*rng.Float64()
		mu[i] = 0.5 + rng.Float64()
	}
	n := 1 << m
	in := Input{States: n, Discrete: dtmc, Seed: make([]int, n)}
	for s := 0; s < n; s++ {
		if 4*bits.OnesCount(uint(s)) > m {
			in.Seed[s] = 1
		}
		row := len(in.From)
		var exit float64
		for i := 0; i < m; i++ {
			w := lam[i]
			if s>>i&1 == 1 {
				w = mu[i]
			}
			exit += w
			in.From = append(in.From, s)
			in.To = append(in.To, s^1<<i)
			in.Weight = append(in.Weight, w)
		}
		if dtmc {
			for k := row; k < len(in.From); k++ {
				in.Weight[k] /= exit
			}
		}
	}
	return in
}

func TestFarmInputRefinesToSingletons(t *testing.T) {
	for _, dtmc := range []bool{false, true} {
		in := farmInput(6, dtmc)
		if _, blocks := coarsestPartition(in); blocks != in.States {
			t.Errorf("dtmc=%v: %d blocks, want %d singletons", dtmc, blocks, in.States)
		}
	}
}

// BenchmarkCoarsestPartition times the lumping partition on farms of
// 2^9, 2^11 and 2^13 states, as continuous chains with spread-out exit
// rates (the exit weights alone settle them) and as DTMCs whose exits all
// sit within tolerance of 1. The refine/ rows time the refinement itself
// on the same inputs, which is where the tolerance merge's cost shows.
func BenchmarkCoarsestPartition(b *testing.B) {
	for _, shape := range []struct {
		name string
		dtmc bool
	}{{"farm", false}, {"uniform-exit", true}} {
		for _, m := range []int{9, 11, 13} {
			in := farmInput(m, shape.dtmc)
			name := shape.name + "/n=" + strconv.Itoa(in.States)
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					coarsestPartition(in)
				}
			})
			b.Run("refine/"+name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					refine(in, 1e-9)
				}
			})
		}
	}
}

// TestExitBoundMatchesRefinement: over seeded chains, coarsestPartition,
// which returns every state alone when the exit weights show no two
// states can share a block, gives the refinement's own partition block
// for block. The shapes are symmetric farms (which lump), heterogeneous
// farms (where the exit weights settle it), their DTMCs (every exit
// within tol of 1), chains whose exits lie half a tol to 4 tol apart
// around the 2·tol bound, and random chains whose weights include
// zeros, −0, NaN, infinities and negatives, each at several tolerances
// and seedings. The test fails unless both outcomes, and lumping, come
// up often.
func TestExitBoundMatchesRefinement(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	tols := []float64{0, 1e-9, 1e-9, 1e-12, 1e-6, 1e-3, 1.0 / 16, 0.1}
	const chains = 10000
	var fired, lumped int
	for c := 0; c < chains; c++ {
		in := exitBoundInput(rng, c%5)
		if in.Tol == 0 {
			in.Tol = tols[rng.Intn(len(tols))]
		}
		tol := in.Tol
		if tol <= 0 {
			tol = 1e-9
		}
		wantOf, want := refine(in, tol)
		gotOf, got := coarsestPartition(in)
		if got != want || !slices.Equal(gotOf, wantOf) {
			t.Fatalf("chain %d (shape %d, tol %g, %d states): partition %d blocks %v, refinement %d blocks %v",
				c, c%5, in.Tol, in.States, got, gotOf, want, wantOf)
		}
		if alone(in, tol) {
			fired++
		}
		if want < in.States {
			lumped++
		}
	}
	t.Logf("%d chains: exit bound settled %d, %d lumped", chains, fired, lumped)
	if fired < chains/10 || chains-fired < chains/5 || lumped < chains/10 {
		t.Fatalf("corpus too one-sided: exit bound settled %d of %d chains, %d lumped", fired, chains, lumped)
	}
}

// exitBoundInput draws one chain of the given shape (0–4, see
// TestExitBoundMatchesRefinement).
func exitBoundInput(rng *rand.Rand, shape int) Input {
	switch shape {
	case 0, 1, 2:
		// A farm of m machines, identical (shape 0) or not, as a CTMC or
		// (shape 2) a DTMC.
		m := 2 + rng.Intn(5)
		lam, mu := make([]float64, m), make([]float64, m)
		for i := range lam {
			lam[i], mu[i] = 0.05, 1
			if shape != 0 {
				lam[i] = 0.02 + 0.06*rng.Float64()
				mu[i] = 0.5 + rng.Float64()
			}
		}
		n := 1 << m
		in := Input{States: n, Discrete: shape == 2}
		if rng.Intn(2) == 0 {
			in.Seed = make([]int, n)
			for s := range in.Seed {
				if 4*bits.OnesCount(uint(s)) > m {
					in.Seed[s] = 1
				}
			}
		}
		for s := 0; s < n; s++ {
			row := len(in.From)
			var exit float64
			for i := 0; i < m; i++ {
				w := lam[i]
				if s>>i&1 == 1 {
					w = mu[i]
				}
				exit += w
				in.From = append(in.From, s)
				in.To = append(in.To, s^1<<i)
				in.Weight = append(in.Weight, w)
			}
			if in.Discrete {
				for k := row; k < len(in.From); k++ {
					in.Weight[k] /= exit
				}
			}
		}
		return in
	case 3:
		// At the default tol, a ring whose states exit at 1 + j·d, with d
		// from half a tol to 4 tol around the bound of 2, often exactly a
		// whole number of tols, and half the exit on a chord. Half the
		// rings have at most 7 states, where two states a fraction of a
		// tol apart lump and nothing else is that close.
		n := 2 + rng.Intn(40)
		if rng.Intn(2) == 0 {
			n = 2 + rng.Intn(6)
		}
		d := 1e-9 * (0.5 + 3.5*rng.Float64())
		if rng.Intn(3) == 0 {
			d = 1e-9 * float64(1+rng.Intn(4))
		}
		in := Input{States: n, Tol: 1e-9}
		for s := 0; s < n; s++ {
			exit := 1 + float64(s%(1+rng.Intn(n)))*d
			if rng.Intn(2) == 0 {
				in.From = append(in.From, s, s)
				in.To = append(in.To, (s+1)%n, rng.Intn(n))
				in.Weight = append(in.Weight, exit/2, exit/2)
				continue
			}
			in.From = append(in.From, s)
			in.To = append(in.To, (s+1)%n)
			in.Weight = append(in.Weight, exit)
		}
		return in
	}
	// Random chains over a small weight pool with exact ties, near ties,
	// zeros, −0, NaN, infinities and negative weights, and self-loops.
	n := 1 + rng.Intn(24)
	pool := []float64{1, 1, 2, 0.5, 1 + 1e-10, 1 + 2e-9, 1 + 5e-9, 0, math.Copysign(0, -1),
		math.NaN(), math.Inf(1), -1, 3, 1e-300}
	in := Input{States: n}
	if rng.Intn(2) == 0 {
		in.Seed = make([]int, n)
		for s := range in.Seed {
			in.Seed[s] = rng.Intn(3)
		}
	}
	for k := rng.Intn(3 * n); k > 0; k-- {
		in.From = append(in.From, rng.Intn(n))
		in.To = append(in.To, rng.Intn(n))
		in.Weight = append(in.Weight, pool[rng.Intn(len(pool))])
	}
	return in
}
