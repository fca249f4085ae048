package markov

import (
	"math"
	"testing"
)

func TestBuildKOfNMatchesBinomialWithAmpleCrews(t *testing.T) {
	// With one crew per unit (independent repair) the steady state is
	// binomial with p = mu/(lam+mu).
	lam, mu := 0.2, 2.0
	m, err := BuildKOfN(KOfNOptions{
		N: 4, K: 2, FailureRate: lam, RepairRate: mu, Crews: 4, FailInDown: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.Availability()
	if err != nil {
		t.Fatal(err)
	}
	p := mu / (lam + mu)
	var want float64
	for up := 2; up <= 4; up++ {
		want += binom(4, up) * math.Pow(p, float64(up)) * math.Pow(1-p, float64(4-up))
	}
	if relErr(a, want) > 1e-12 {
		t.Errorf("availability = %.12g, want binomial %.12g", a, want)
	}
}

func binom(n, k int) float64 {
	out := 1.0
	for i := 0; i < k; i++ {
		out = out * float64(n-i) / float64(i+1)
	}
	return out
}

func TestBuildKOfNSingleCrewWorseThanAmple(t *testing.T) {
	base := KOfNOptions{N: 5, K: 3, FailureRate: 0.3, RepairRate: 1.0, FailInDown: true}
	one := base
	one.Crews = 1
	many := base
	many.Crews = 5
	m1, err := BuildKOfN(one)
	if err != nil {
		t.Fatal(err)
	}
	mN, err := BuildKOfN(many)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := m1.Availability()
	if err != nil {
		t.Fatal(err)
	}
	aN, err := mN.Availability()
	if err != nil {
		t.Fatal(err)
	}
	if a1 >= aN {
		t.Errorf("single crew %g should be worse than five crews %g", a1, aN)
	}
}

func TestBuildKOfNMTTFClosedForm(t *testing.T) {
	// 1-of-2 (parallel) with single crew: MTTF = (3λ+μ)/(2λ²).
	lam, mu := 0.4, 3.0
	m, err := BuildKOfN(KOfNOptions{N: 2, K: 1, FailureRate: lam, RepairRate: mu, Crews: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Chain.MTTF("f0", "f2")
	if err != nil {
		t.Fatal(err)
	}
	want := (3*lam + mu) / (2 * lam * lam)
	if relErr(got, want) > 1e-12 {
		t.Errorf("MTTF = %g, want %g", got, want)
	}
}

func TestBuildKOfNStopsAtFailureWhenConfigured(t *testing.T) {
	m, err := BuildKOfN(KOfNOptions{N: 3, K: 2, FailureRate: 0.1, RepairRate: 1, Crews: 1})
	if err != nil {
		t.Fatal(err)
	}
	// FailInDown=false: states f0..f2 only (f2 = down), no f3.
	if m.Chain.NumStates() != 3 {
		t.Errorf("states = %d, want 3", m.Chain.NumStates())
	}
	full, err := BuildKOfN(KOfNOptions{N: 3, K: 2, FailureRate: 0.1, RepairRate: 1, Crews: 1, FailInDown: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.Chain.NumStates() != 4 {
		t.Errorf("states = %d, want 4", full.Chain.NumStates())
	}
}

func TestBuildKOfNValidation(t *testing.T) {
	bad := []KOfNOptions{
		{N: 0, K: 1, FailureRate: 1, RepairRate: 1, Crews: 1},
		{N: 2, K: 3, FailureRate: 1, RepairRate: 1, Crews: 1},
		{N: 2, K: 1, FailureRate: 0, RepairRate: 1, Crews: 1},
		{N: 2, K: 1, FailureRate: 1, RepairRate: 1, Crews: 0},
	}
	for i, opts := range bad {
		if _, err := BuildKOfN(opts); err == nil {
			t.Errorf("case %d accepted: %+v", i, opts)
		}
	}
}
