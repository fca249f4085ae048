package markov

import (
	"errors"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"testing"
)

// identicalBitmaskChain builds the 2^n chain of n IDENTICAL components
// with a single shared repairer (lowest failed index first).
func identicalBitmaskChain(t *testing.T, n int, lam, mu float64) *CTMC {
	t.Helper()
	c := NewCTMC()
	name := func(mask int) string { return "m" + strconv.Itoa(mask) }
	for mask := 0; mask < 1<<n; mask++ {
		for i := 0; i < n; i++ {
			if mask&(1<<i) == 0 {
				if err := c.AddRate(name(mask), name(mask|1<<i), lam); err != nil {
					t.Fatal(err)
				}
			}
		}
		if mask != 0 {
			low := 0
			for mask&(1<<low) == 0 {
				low++
			}
			if err := c.AddRate(name(mask), name(mask&^(1<<low)), mu); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c
}

func TestLumpBitmaskToCounts(t *testing.T) {
	n := 6
	lam, mu := 0.02, 1.0
	detailed := identicalBitmaskChain(t, n, lam, mu)
	if detailed.NumStates() != 64 {
		t.Fatalf("detailed states = %d", detailed.NumStates())
	}
	lumped, err := detailed.Lump(func(state string) string {
		mask, err := strconv.Atoi(strings.TrimPrefix(state, "m"))
		if err != nil {
			t.Fatal(err)
		}
		return "k" + strconv.Itoa(bits.OnesCount(uint(mask)))
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lumped.NumStates() != n+1 {
		t.Fatalf("lumped states = %d, want %d", lumped.NumStates(), n+1)
	}
	// Lumped steady state must match the aggregated detailed steady state.
	piD, err := detailed.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	piL, err := lumped.SteadyStateMap()
	if err != nil {
		t.Fatal(err)
	}
	agg := make(map[string]float64, n+1)
	for i, name := range detailed.StateNames() {
		mask, _ := strconv.Atoi(strings.TrimPrefix(name, "m"))
		agg["k"+strconv.Itoa(bits.OnesCount(uint(mask)))] += piD[i]
	}
	for k, want := range agg {
		if math.Abs(piL[k]-want) > 1e-11 {
			t.Errorf("pi[%s] = %g, want %g", k, piL[k], want)
		}
	}
	// The lumped chain is the textbook birth-death: check one rate.
	// From k0, failure rate is n·λ.
	q, err := lumped.Generator()
	if err != nil {
		t.Fatal(err)
	}
	i0, _ := lumped.Index("k0")
	i1, _ := lumped.Index("k1")
	if math.Abs(q.At(i0, i1)-float64(n)*lam) > 1e-12 {
		t.Errorf("lumped failure rate = %g, want %g", q.At(i0, i1), float64(n)*lam)
	}
}

func TestLumpRejectsAsymmetricChain(t *testing.T) {
	// Distinct per-component rates break lumpability by counts.
	c := NewCTMC()
	_ = c.AddRate("m0", "m1", 1.0) // comp 0 fails at 1.0
	_ = c.AddRate("m0", "m2", 2.0) // comp 1 fails at 2.0
	_ = c.AddRate("m1", "m3", 2.0)
	_ = c.AddRate("m2", "m3", 1.0)
	_ = c.AddRate("m1", "m0", 5)
	_ = c.AddRate("m2", "m0", 5)
	_ = c.AddRate("m3", "m1", 5)
	counts := map[string]string{"m0": "k0", "m1": "k1", "m2": "k1", "m3": "k2"}
	_, err := c.Lump(func(s string) string { return counts[s] }, 0)
	if err == nil {
		t.Fatal("asymmetric chain lumped")
	}
	if !errors.Is(err, ErrNotLumpable) {
		t.Fatalf("want ErrNotLumpable, got %v", err)
	}
	// The same chain IS lumpable with the trivial identity partition.
	if _, err := c.Lump(func(s string) string { return s }, 0); err != nil {
		t.Fatalf("identity partition: %v", err)
	}
	// With mismatched rates into two blocks, the error names the smaller
	// block on every run, whatever the map order.
	two := NewCTMC()
	_ = two.AddRate("a", "p", 1)
	_ = two.AddRate("a", "q", 1)
	_ = two.AddRate("b", "p", 2)
	_ = two.AddRate("b", "q", 2)
	blockOf := map[string]string{"a": "X", "b": "X", "p": "P", "q": "Q"}
	for run := 0; run < 20; run++ {
		_, err := two.Lump(func(s string) string { return blockOf[s] }, 0)
		if err == nil || !strings.Contains(err.Error(), `rate into "P" differs`) {
			t.Fatalf("run %d: %v, want the mismatch into block P", run, err)
		}
	}
}

func TestLumpValidation(t *testing.T) {
	empty := NewCTMC()
	if _, err := empty.Lump(func(s string) string { return s }, 0); !errors.Is(err, ErrEmptyChain) {
		t.Errorf("empty: %v", err)
	}
	c := twoState(t, 1, 1)
	if _, err := c.Lump(nil, 0); err == nil {
		t.Error("nil partition accepted")
	}
	if _, err := c.Lump(func(string) string { return "" }, 0); err == nil {
		t.Error("empty block accepted")
	}
}

func TestLumpTransientAgreement(t *testing.T) {
	// Transient measures survive lumping: P(k failed at t) identical.
	n := 4
	lam, mu := 0.1, 2.0
	detailed := identicalBitmaskChain(t, n, lam, mu)
	toBlock := func(state string) string {
		mask, _ := strconv.Atoi(strings.TrimPrefix(state, "m"))
		return "k" + strconv.Itoa(bits.OnesCount(uint(mask)))
	}
	lumped, err := detailed.Lump(toBlock, 0)
	if err != nil {
		t.Fatal(err)
	}
	p0D, err := detailed.InitialAt("m0")
	if err != nil {
		t.Fatal(err)
	}
	p0L, err := lumped.InitialAt("k0")
	if err != nil {
		t.Fatal(err)
	}
	tt := 0.7
	pD, err := detailed.Transient(tt, p0D, TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pL, err := lumped.Transient(tt, p0L, TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	agg := make(map[string]float64)
	for i, name := range detailed.StateNames() {
		agg[toBlock(name)] += pD[i]
	}
	for i, name := range lumped.StateNames() {
		if math.Abs(pL[i]-agg[name]) > 1e-9 {
			t.Errorf("P(%s at t) lumped %g vs aggregated %g", name, pL[i], agg[name])
		}
	}
}

func TestWriteDOT(t *testing.T) {
	c := twoState(t, 0.5, 2)
	var sb strings.Builder
	if err := c.WriteDOT(&sb, "availability", func(s string) bool { return s == "down" }); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`digraph "availability"`, `"up" -> "down" [label="0.5"]`, "lightcoral"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q:\n%s", want, out)
		}
	}
	if err := NewCTMC().WriteDOT(&sb, "empty", nil); err == nil {
		t.Error("empty chain accepted")
	}
}
