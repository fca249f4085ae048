package relstruct

import (
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"
)

// splitBlockFirstFit is splitBlock with its tolerance merge done the
// direct way: each exact group is compared with every earlier
// representative, in order, and joins the first that matches. It is the
// oracle splitBlock must agree with, group for group and in order.
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

// checkSplitBlock compares splitBlock with the first-fit oracle on one
// input and reports whether the tolerance merge joined any exact groups.
func checkSplitBlock(t *testing.T, members []int, sigs []sig, tol float64) bool {
	t.Helper()
	want := splitBlockFirstFit(members, sigs, tol)
	got := splitBlock(members, sigs, tol)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tol %g, sigs %+v:\nsplitBlock %v\nfirst fit  %v", tol, sigs, got, want)
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

// decodeSigSet reads a splitBlock input from fuzz bytes: a tolerance
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

// BenchmarkCoarsestPartition times the lumping refinement on farms of 2^9,
// 2^11 and 2^13 states, as continuous chains with spread-out exit rates
// and as DTMCs whose exits all sit within tolerance of 1.
func BenchmarkCoarsestPartition(b *testing.B) {
	for _, shape := range []struct {
		name string
		dtmc bool
	}{{"farm", false}, {"uniform-exit", true}} {
		for _, m := range []int{9, 11, 13} {
			in := farmInput(m, shape.dtmc)
			b.Run(shape.name+"/n="+strconv.Itoa(in.States), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					coarsestPartition(in)
				}
			})
		}
	}
}
