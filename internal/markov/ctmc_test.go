package markov

import (
	"errors"
	"math"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/failpoint"
	"repro/internal/linalg"
)

func relErr(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Abs(b); m > 1e-300 {
		return d / m
	}
	return d
}

// twoState builds the canonical up/down availability chain.
func twoState(t *testing.T, lam, mu float64) *CTMC {
	t.Helper()
	c := NewCTMC()
	if err := c.AddRate("up", "down", lam); err != nil {
		t.Fatal(err)
	}
	if err := c.AddRate("down", "up", mu); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTwoStateSteadyState(t *testing.T) {
	tests := []struct {
		name    string
		lam, mu float64
	}{
		{name: "balanced", lam: 1, mu: 1},
		{name: "availability-like", lam: 1e-4, mu: 0.5},
		{name: "very stiff", lam: 1e-8, mu: 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := twoState(t, tt.lam, tt.mu)
			pi, err := c.SteadyStateMap()
			if err != nil {
				t.Fatal(err)
			}
			want := tt.mu / (tt.lam + tt.mu)
			if relErr(pi["up"], want) > 1e-13 {
				t.Errorf("pi[up] = %.16g, want %.16g", pi["up"], want)
			}
		})
	}
}

// duplexSharedRepair builds the 2-component shared-repair chain with states
// "2" (both up), "1", "0". Failure rate lam each, single repairer rate mu.
func duplexSharedRepair(t *testing.T, lam, mu float64) *CTMC {
	t.Helper()
	c := NewCTMC()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(c.AddRate("2", "1", 2*lam))
	must(c.AddRate("1", "0", lam))
	must(c.AddRate("1", "2", mu))
	must(c.AddRate("0", "1", mu))
	return c
}

func TestDuplexSharedRepairSteadyState(t *testing.T) {
	// Birth-death chain: pi_1 = pi_2·(2λ/μ), pi_0 = pi_1·(λ/μ).
	lam, mu := 0.1, 1.0
	c := duplexSharedRepair(t, lam, mu)
	pi, err := c.SteadyStateMap()
	if err != nil {
		t.Fatal(err)
	}
	r1 := 2 * lam / mu
	r0 := r1 * lam / mu
	norm := 1 + r1 + r0
	if relErr(pi["2"], 1/norm) > 1e-13 {
		t.Errorf("pi[2] = %g, want %g", pi["2"], 1/norm)
	}
	if relErr(pi["0"], r0/norm) > 1e-13 {
		t.Errorf("pi[0] = %g, want %g", pi["0"], r0/norm)
	}
}

func TestTransientTwoStateClosedForm(t *testing.T) {
	lam, mu := 0.3, 1.7
	c := twoState(t, lam, mu)
	p0, err := c.InitialAt("up")
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{0, 0.1, 0.5, 1, 3, 10, 50} {
		p, err := c.Transient(tt, p0, TransientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		s := lam + mu
		want := mu/s + lam/s*math.Exp(-s*tt)
		iu, _ := c.Index("up")
		if math.Abs(p[iu]-want) > 1e-10 {
			t.Errorf("A(%g) = %.12g, want %.12g", tt, p[iu], want)
		}
	}
}

func TestTransientStiff(t *testing.T) {
	// Stiff chain: uniformization must stay stable for qt ~ 1e4.
	lam, mu := 1e-3, 10.0
	c := twoState(t, lam, mu)
	p0, _ := c.InitialAt("up")
	p, err := c.Transient(1000, p0, TransientOptions{SteadyStateDetection: true})
	if err != nil {
		t.Fatal(err)
	}
	iu, _ := c.Index("up")
	want := mu / (lam + mu)
	if math.Abs(p[iu]-want) > 1e-9 {
		t.Errorf("A(1000) = %.12g, want steady %.12g", p[iu], want)
	}
}

func TestTransientConservation(t *testing.T) {
	c := duplexSharedRepair(t, 0.2, 1)
	p0, _ := c.InitialAt("2")
	for _, tt := range []float64{0.01, 0.7, 4} {
		p, err := c.Transient(tt, p0, TransientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, x := range p {
			if x < 0 {
				t.Fatalf("negative probability %g at t=%g", x, tt)
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("probabilities sum to %.15g at t=%g", sum, tt)
		}
	}
}

func TestCumulativeTransientTwoState(t *testing.T) {
	// L_up(t) = ∫A(u)du = A_ss·t + (lam/s²)(1-e^{-st}).
	lam, mu := 0.4, 1.1
	c := twoState(t, lam, mu)
	p0, _ := c.InitialAt("up")
	s := lam + mu
	for _, tt := range []float64{0.5, 2, 8} {
		occ, err := c.CumulativeTransient(tt, p0, TransientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		iu, _ := c.Index("up")
		want := mu/s*tt + lam/(s*s)*(1-math.Exp(-s*tt))
		if math.Abs(occ[iu]-want) > 1e-8 {
			t.Errorf("L_up(%g) = %.10g, want %.10g", tt, occ[iu], want)
		}
		// Total occupancy equals elapsed time.
		var total float64
		for _, x := range occ {
			total += x
		}
		if math.Abs(total-tt) > 1e-8 {
			t.Errorf("total occupancy %g != t %g", total, tt)
		}
	}
}

func TestIntervalAvailability(t *testing.T) {
	lam, mu := 0.4, 1.1
	c := twoState(t, lam, mu)
	p0, _ := c.InitialAt("up")
	got, err := c.IntervalAvailability(5, p0, []string{"up"}, TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := lam + mu
	want := (mu/s*5 + lam/(s*s)*(1-math.Exp(-s*5))) / 5
	if math.Abs(got-want) > 1e-8 {
		t.Errorf("interval availability = %.10g, want %.10g", got, want)
	}
	// Interval availability starts at 1 and decreases toward steady state.
	short, _ := c.IntervalAvailability(0.001, p0, []string{"up"}, TransientOptions{})
	long, _ := c.IntervalAvailability(100, p0, []string{"up"}, TransientOptions{})
	if !(short > long) {
		t.Errorf("interval availability should decrease: %g vs %g", short, long)
	}
	// Long-run value is A_ss plus the O(1/t) startup correction λ/(s²t).
	wantLong := mu/s + lam/(s*s*100)
	if math.Abs(long-wantLong) > 1e-6 {
		t.Errorf("long-run interval availability %g, want %g", long, wantLong)
	}
}

func TestMTTFTwoComponentParallel(t *testing.T) {
	// Two independent components rate λ, no repair, system fails when both
	// fail: MTTF = 3/(2λ).
	lam := 0.5
	c := NewCTMC()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(c.AddRate("2", "1", 2*lam))
	must(c.AddRate("1", "0", lam))
	mttf, err := c.MTTF("2", "0")
	if err != nil {
		t.Fatal(err)
	}
	if relErr(mttf, 3/(2*lam)) > 1e-12 {
		t.Errorf("MTTF = %g, want %g", mttf, 3/(2*lam))
	}
}

func TestMTTFWithRepairExceedsWithout(t *testing.T) {
	// Repairable duplex (repair of the degraded state) has much larger MTTF.
	lam, mu := 0.1, 5.0
	norep := NewCTMC()
	_ = norep.AddRate("2", "1", 2*lam)
	_ = norep.AddRate("1", "0", lam)
	rep := NewCTMC()
	_ = rep.AddRate("2", "1", 2*lam)
	_ = rep.AddRate("1", "0", lam)
	_ = rep.AddRate("1", "2", mu)
	m1, err := norep.MTTF("2", "0")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := rep.MTTF("2", "0")
	if err != nil {
		t.Fatal(err)
	}
	// Closed form with repair: (3λ+μ)/(2λ²).
	want := (3*lam + mu) / (2 * lam * lam)
	if relErr(m2, want) > 1e-12 {
		t.Errorf("repairable MTTF = %g, want %g", m2, want)
	}
	if m2 < 10*m1 {
		t.Errorf("repair should boost MTTF: %g vs %g", m2, m1)
	}
}

func TestAbsorptionProbabilities(t *testing.T) {
	// From "s", race between absorption to "a" (rate 2) and "b" (rate 3).
	c := NewCTMC()
	_ = c.AddRate("s", "a", 2)
	_ = c.AddRate("s", "b", 3)
	p0, _ := c.InitialAt("s")
	res, err := c.Absorbing(p0, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if relErr(res.AbsorbProb["a"], 0.4) > 1e-12 {
		t.Errorf("P(absorb a) = %g, want 0.4", res.AbsorbProb["a"])
	}
	if relErr(res.AbsorbProb["b"], 0.6) > 1e-12 {
		t.Errorf("P(absorb b) = %g, want 0.6", res.AbsorbProb["b"])
	}
	if relErr(res.MTTA, 0.2) > 1e-12 {
		t.Errorf("MTTA = %g, want 0.2", res.MTTA)
	}
}

func TestExpectedAccumulatedReward(t *testing.T) {
	// Degrading 3-state chain with reward 1.0 / 0.5 / 0 (performability).
	c := NewCTMC()
	_ = c.AddRate("full", "degraded", 1)
	_ = c.AddRate("degraded", "failed", 2)
	p0, _ := c.InitialAt("full")
	rew := func(s string) float64 {
		switch s {
		case "full":
			return 1
		case "degraded":
			return 0.5
		default:
			return 0
		}
	}
	got, err := c.ExpectedAccumulatedReward(p0, rew, "failed")
	if err != nil {
		t.Fatal(err)
	}
	// sojourn(full)=1, sojourn(degraded)=1/2 → reward = 1 + 0.25.
	if relErr(got, 1.25) > 1e-12 {
		t.Errorf("accumulated reward = %g, want 1.25", got)
	}
}

func TestSteadyStateRewardDowntime(t *testing.T) {
	lam, mu := 1.0/1000, 0.25 // per hour
	c := twoState(t, lam, mu)
	pi, err := c.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	down, err := c.ExpectedReward(pi, func(s string) float64 {
		if s == "down" {
			return 1
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	wantUnavail := lam / (lam + mu)
	if relErr(down, wantUnavail) > 1e-12 {
		t.Errorf("unavailability = %g, want %g", down, wantUnavail)
	}
	// Annual downtime in minutes: U · 525960.
	minutes := down * 525960
	if minutes < 2000 || minutes > 2200 {
		t.Errorf("downtime %g min/yr outside expected band", minutes)
	}
}

func TestErrorsAndValidation(t *testing.T) {
	c := NewCTMC()
	if err := c.AddRate("a", "a", 1); err == nil {
		t.Error("self transition accepted")
	}
	if err := c.AddRate("a", "b", -1); !errors.Is(err, ErrBadRate) {
		t.Errorf("negative rate: %v", err)
	}
	if err := c.AddRate("a", "b", math.Inf(1)); !errors.Is(err, ErrBadRate) {
		t.Errorf("infinite rate: %v", err)
	}
	empty := NewCTMC()
	if _, err := empty.SteadyState(); !errors.Is(err, ErrEmptyChain) {
		t.Errorf("empty chain: %v", err)
	}
	_ = c.AddRate("a", "b", 1)
	_ = c.AddRate("b", "a", 1)
	if _, err := c.Index("zzz"); !errors.Is(err, ErrUnknownState) {
		t.Errorf("unknown state: %v", err)
	}
	if _, err := c.Transient(1, []float64{0.5, 0.6}, TransientOptions{}); !errors.Is(err, ErrBadInitial) {
		t.Errorf("bad initial: %v", err)
	}
	if _, err := c.Transient(-1, []float64{1, 0}, TransientOptions{}); err == nil {
		t.Error("negative time accepted")
	}
	if _, err := c.Absorbing([]float64{1, 0}); err == nil {
		t.Error("no absorbing states accepted")
	}
}

func TestLargeChainSORPath(t *testing.T) {
	// Birth-death chain with 800 states exercises the SOR branch.
	c := NewCTMC()
	n := 800
	name := func(i int) string { return "s" + strconv.Itoa(i) }
	for i := 0; i < n-1; i++ {
		if err := c.AddRate(name(i), name(i+1), 1.0); err != nil {
			t.Fatal(err)
		}
		if err := c.AddRate(name(i+1), name(i), 2.0); err != nil {
			t.Fatal(err)
		}
	}
	pi, err := c.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	// Geometric with ratio 1/2: pi_0 = (1-r)/(1-r^n).
	r := 0.5
	want0 := (1 - r) / (1 - math.Pow(r, float64(n)))
	i0, _ := c.Index(name(0))
	if relErr(pi[i0], want0) > 1e-6 {
		t.Errorf("pi[0] = %g, want %g", pi[i0], want0)
	}
}

func TestSensitivityTwoState(t *testing.T) {
	// A = mu/(lam+mu); dA/dlam = -mu/(lam+mu)².
	lam, mu := 0.2, 2.0
	c := twoState(t, lam, mu)
	dA, err := c.MeasureSensitivity([]string{"up"}, func(from, to string) float64 {
		if from == "up" && to == "down" {
			return 1 // dλ/dλ
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	want := -mu / math.Pow(lam+mu, 2)
	if relErr(dA, want) > 1e-10 {
		t.Errorf("dA/dλ = %g, want %g", dA, want)
	}
	// dA/dmu = lam/(lam+mu)².
	dAmu, err := c.MeasureSensitivity([]string{"up"}, func(from, to string) float64 {
		if from == "down" && to == "up" {
			return 1
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	wantMu := lam / math.Pow(lam+mu, 2)
	if relErr(dAmu, wantMu) > 1e-10 {
		t.Errorf("dA/dμ = %g, want %g", dAmu, wantMu)
	}
}

func TestSensitivityFiniteDifference(t *testing.T) {
	// Cross-check analytic sensitivity against finite differences on the
	// shared-repair duplex.
	lam, mu := 0.3, 1.5
	build := func(l float64) *CTMC {
		c := NewCTMC()
		_ = c.AddRate("2", "1", 2*l)
		_ = c.AddRate("1", "0", l)
		_ = c.AddRate("1", "2", mu)
		_ = c.AddRate("0", "1", mu)
		return c
	}
	c := build(lam)
	got, err := c.MeasureSensitivity([]string{"2", "1"}, func(from, to string) float64 {
		switch {
		case from == "2" && to == "1":
			return 2
		case from == "1" && to == "0":
			return 1
		default:
			return 0
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	h := 1e-6
	aPlus := availOf(t, build(lam+h))
	aMinus := availOf(t, build(lam-h))
	fd := (aPlus - aMinus) / (2 * h)
	if math.Abs(got-fd) > 1e-5 {
		t.Errorf("analytic %g vs finite-diff %g", got, fd)
	}
}

func availOf(t *testing.T, c *CTMC) float64 {
	t.Helper()
	pi, err := c.SteadyStateMap()
	if err != nil {
		t.Fatal(err)
	}
	return pi["2"] + pi["1"]
}

func TestTransientMatchesMatrixExponentialProperty(t *testing.T) {
	// Cross-oracle: uniformization must agree with p0·e^{Qt} computed by
	// dense scaling-and-squaring for random small generators.
	f := func(seed int64) bool {
		rng := newSplitMix(seed)
		n := 2 + int(uint64(seed)%5)
		c := NewCTMC()
		names := make([]string, n)
		for i := range names {
			names[i] = "s" + strconv.Itoa(i)
			c.State(names[i])
		}
		q := linalg.NewDense(n, n)
		for i := 0; i < n; i++ {
			var out float64
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				if rng.float() < 0.7 {
					rate := 0.05 + 3*rng.float()
					if err := c.AddRate(names[i], names[j], rate); err != nil {
						return false
					}
					q.Set(i, j, rate)
					out += rate
				}
			}
			q.Set(i, i, -out)
		}
		tt := 0.1 + 2*rng.float()
		// Scale Q by t and exponentiate.
		qt := q.Clone()
		for i := 0; i < n; i++ {
			row := qt.Row(i)
			for j := range row {
				row[j] *= tt
			}
		}
		e, err := linalg.Expm(qt)
		if err != nil {
			return false
		}
		p0 := make([]float64, n)
		p0[0] = 1
		want, err := e.VecMul(p0)
		if err != nil {
			return false
		}
		got, err := c.Transient(tt, p0, TransientOptions{})
		if err != nil {
			return false
		}
		d, _ := linalg.MaxAbsDiff(got, want)
		return d < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// splitMix is a tiny deterministic PRNG for property tests.
type splitMix struct{ s uint64 }

func newSplitMix(seed int64) *splitMix {
	return &splitMix{s: uint64(seed) + 0x9e3779b97f4a7c15}
}

func (r *splitMix) float() float64 {
	var z uint64
	r.s, z = failpoint.SplitMix64(r.s)
	return float64(z>>11) / float64(1<<53)
}

// TestAbsorbingSumsAreDeterministic: MTTA, the accumulated reward and the
// embedded chain's mean step count each sum over many transient states,
// and every call on the same chain must give the same bits. A sum in
// map order gives several bit patterns in 20 calls on this chain.
func TestAbsorbingSumsAreDeterministic(t *testing.T) {
	// Four machines with distinct failure rates and one repairer that
	// fixes the lowest failed machine; all four down absorbs. Fifteen
	// transient states.
	const n = 4
	lam := []float64{0.013, 0.029, 0.047, 0.071}
	mu := 0.9
	name := func(mask int) string { return "m" + strconv.Itoa(mask) }
	c := NewCTMC()
	full := 1<<n - 1
	for mask := 0; mask < full; mask++ {
		for i := 0; i < n; i++ {
			if mask&(1<<i) == 0 {
				if err := c.AddRate(name(mask), name(mask|1<<i), lam[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				if err := c.AddRate(name(mask), name(mask&^(1<<i)), mu); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
	}
	d, err := c.EmbeddedDTMC()
	if err != nil {
		t.Fatal(err)
	}
	p0, err := c.InitialAt(name(0))
	if err != nil {
		t.Fatal(err)
	}
	reward := func(s string) float64 { return 1/float64(len(s)) + float64(s[len(s)-1]-'0')/7 }
	var first [3]uint64
	for run := 0; run < 20; run++ {
		mtta, err := c.MTTF(name(0), name(full))
		if err != nil {
			t.Fatal(err)
		}
		acc, err := c.ExpectedAccumulatedReward(p0, reward, name(full))
		if err != nil {
			t.Fatal(err)
		}
		steps, err := d.MeanStepsToAbsorption(name(0), name(full))
		if err != nil {
			t.Fatal(err)
		}
		got := [3]uint64{math.Float64bits(mtta), math.Float64bits(acc), math.Float64bits(steps)}
		if run == 0 {
			first = got
		} else if got != first {
			t.Fatalf("run %d: (mtta, reward, steps) bits %x, run 0 gave %x", run, got, first)
		}
	}
}
