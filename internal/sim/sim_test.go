package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/markov"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	mustSchedule := func(d float64, id int) {
		t.Helper()
		if err := e.Schedule(d, func() { order = append(order, id) }); err != nil {
			t.Fatal(err)
		}
	}
	mustSchedule(3, 3)
	mustSchedule(1, 1)
	mustSchedule(2, 2)
	e.Run(10)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 10 {
		t.Errorf("clock = %g, want 10", e.Now())
	}
}

func TestEngineTieBreakFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		_ = e.Schedule(1.0, func() { order = append(order, i) })
	}
	e.Run(2)
	for i, got := range order {
		if got != i {
			t.Fatalf("FIFO tie-break violated: %v", order)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	fired := false
	_ = e.Schedule(5, func() { fired = true })
	e.Run(3)
	if fired {
		t.Error("event beyond horizon fired")
	}
	if e.Now() != 3 {
		t.Errorf("clock = %g, want 3", e.Now())
	}
	if len(e.queue) != 1 {
		t.Errorf("pending = %d, want 1", len(e.queue))
	}
	e.Run(6)
	if !fired {
		t.Error("event not fired after extending horizon")
	}
}

func TestEngineCascade(t *testing.T) {
	// Events scheduling events: a chain of 100 unit steps.
	e := NewEngine()
	count := 0
	var step func()
	step = func() {
		count++
		if count < 100 {
			_ = e.Schedule(1, step)
		}
	}
	_ = e.Schedule(1, step)
	e.Run(1000)
	if count != 100 {
		t.Errorf("count = %d, want 100", count)
	}
	if e.Now() != 1000 {
		t.Errorf("clock = %g", e.Now())
	}
}

func TestEngineRejectsPast(t *testing.T) {
	e := NewEngine()
	if err := e.Schedule(-1, func() {}); err == nil {
		t.Error("negative delay accepted")
	}
}

func TestEngineHeapProperty(t *testing.T) {
	// Property: events fire in nondecreasing time order regardless of
	// insertion order.
	f := func(delays []float64) bool {
		e := NewEngine()
		var times []float64
		for _, d := range delays {
			d = math.Abs(d)
			if math.IsNaN(d) || math.IsInf(d, 0) {
				continue
			}
			d = math.Mod(d, 1000)
			if err := e.Schedule(d, func() { times = append(times, e.Now()) }); err != nil {
				return false
			}
		}
		e.Run(math.Inf(1))
		return sort.Float64sAreSorted(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAccumulator(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Errorf("n = %d", a.N())
	}
	if math.Abs(a.mean-5) > 1e-12 {
		t.Errorf("mean = %g, want 5", a.mean)
	}
	// Population variance is 4; sample variance is 32/7.
	if math.Abs(a.Variance()-32.0/7) > 1e-12 {
		t.Errorf("variance = %g, want %g", a.Variance(), 32.0/7)
	}
	ci := a.Interval(0.95)
	if !ci.Contains(5) {
		t.Errorf("CI %v should contain the mean", ci)
	}
}

func TestCTMCSimMatchesAnalyticTransient(t *testing.T) {
	lam, mu := 0.5, 2.0
	c := markov.NewCTMC()
	if err := c.AddRate("up", "down", lam); err != nil {
		t.Fatal(err)
	}
	if err := c.AddRate("down", "up", mu); err != nil {
		t.Fatal(err)
	}
	s, err := NewCTMCPathSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	tt := 0.8
	ci, err := s.EstimateTransientProb(rng, "up", tt, []string{"up"}, 40000, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	sr := lam + mu
	want := mu/sr + lam/sr*math.Exp(-sr*tt)
	if !ci.Contains(want) {
		t.Errorf("analytic %g outside simulated CI %v", want, ci)
	}
}

func TestCTMCSimOccupancy(t *testing.T) {
	lam, mu := 0.5, 2.0
	c := markov.NewCTMC()
	_ = c.AddRate("up", "down", lam)
	_ = c.AddRate("down", "up", mu)
	s, err := NewCTMCPathSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	horizon := 10.0
	ci, err := s.EstimateOccupancy(rng, "up", horizon, []string{"up"}, 20000, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	p0, _ := c.InitialAt("up")
	want, err := c.IntervalAvailability(horizon, p0, []string{"up"}, markov.TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !ci.Contains(want) {
		t.Errorf("analytic %g outside simulated CI %v", want, ci)
	}
}

func TestCTMCSimMTTA(t *testing.T) {
	// Two-component no-repair parallel: MTTA = 3/(2λ).
	lam := 1.0
	c := markov.NewCTMC()
	_ = c.AddRate("2", "1", 2*lam)
	_ = c.AddRate("1", "0", lam)
	s, err := NewCTMCPathSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	ci, err := s.EstimateMTTA(rng, "2", []string{"0"}, 1000, 30000, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if !ci.Contains(1.5) {
		t.Errorf("MTTA 1.5 outside CI %v", ci)
	}
}

func TestSystemSimulatorSingleComponentAvailability(t *testing.T) {
	lam, mu := 1.0, 4.0
	comps := []ComponentProcess{{
		Name:     "c",
		Lifetime: dist.MustExponential(lam),
		Repair:   dist.MustExponential(mu),
	}}
	s, err := NewSystemSimulator(comps, func(up []bool) bool { return up[0] })
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(19))
	tt := 1.3
	ci, err := s.EstimatePointAvailability(rng, tt, 40000, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	sr := lam + mu
	want := mu/sr + lam/sr*math.Exp(-sr*tt)
	if !ci.Contains(want) {
		t.Errorf("analytic A(%g)=%g outside CI %v", tt, want, ci)
	}
}

func TestSystemSimulatorParallelReliability(t *testing.T) {
	// Two-unit parallel, no repair: R(t) = 2e^{-λt} - e^{-2λt}.
	lam := 1.0
	comps := []ComponentProcess{
		{Name: "a", Lifetime: dist.MustExponential(lam)},
		{Name: "b", Lifetime: dist.MustExponential(lam)},
	}
	s, err := NewSystemSimulator(comps, func(up []bool) bool { return up[0] || up[1] })
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	tt := 1.0
	ci, err := s.EstimateReliability(rng, tt, 40000, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	want := 2*math.Exp(-lam*tt) - math.Exp(-2*lam*tt)
	if !ci.Contains(want) {
		t.Errorf("analytic R=%g outside CI %v", want, ci)
	}
	mttf, err := s.EstimateMTTF(rng, 200, 20000, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if !mttf.Contains(1.5) {
		t.Errorf("MTTF 1.5 outside CI %v", mttf)
	}
}

func TestSystemSimulatorWeibull(t *testing.T) {
	// Non-exponential oracle check: single Weibull component reliability.
	w, err := dist.NewWeibull(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystemSimulator(
		[]ComponentProcess{{Name: "w", Lifetime: w}},
		func(up []bool) bool { return up[0] },
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	tt := 0.8
	ci, err := s.EstimateReliability(rng, tt, 40000, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(-math.Pow(tt, 2))
	if !ci.Contains(want) {
		t.Errorf("analytic R=%g outside CI %v", want, ci)
	}
}

func TestSystemSimulatorValidation(t *testing.T) {
	if _, err := NewSystemSimulator(nil, func([]bool) bool { return true }); err == nil {
		t.Error("empty components accepted")
	}
	comps := []ComponentProcess{{Name: "x", Lifetime: dist.MustExponential(1)}}
	if _, err := NewSystemSimulator(comps, nil); err == nil {
		t.Error("nil structure accepted")
	}
	if _, err := NewSystemSimulator([]ComponentProcess{{Name: "y"}}, func([]bool) bool { return true }); err == nil {
		t.Error("missing lifetime accepted")
	}
}
