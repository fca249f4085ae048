package failpoint

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestInjectUnarmedIsNil(t *testing.T) {
	t.Cleanup(Reset)
	if err := Inject("nothing.armed"); err != nil {
		t.Fatalf("unarmed Inject returned %v", err)
	}
}

func TestErrorAction(t *testing.T) {
	t.Cleanup(Reset)
	if err := Arm("x.err", "error(broken pipe)"); err != nil {
		t.Fatal(err)
	}
	err := Inject("x.err")
	var fe *Error
	if !errors.As(err, &fe) {
		t.Fatalf("Inject = %v, want *failpoint.Error", err)
	}
	if fe.Name != "x.err" || !strings.Contains(fe.Error(), "broken pipe") {
		t.Errorf("error = %v", fe)
	}
	if fe.FailureClass() != ClassInjected {
		t.Errorf("FailureClass = %q, want %q", fe.FailureClass(), ClassInjected)
	}
	// Arming one point must not trip others.
	if err := Inject("x.other"); err != nil {
		t.Errorf("unarmed sibling tripped: %v", err)
	}
}

func TestPanicAction(t *testing.T) {
	t.Cleanup(Reset)
	if err := Arm("x.panic", "panic(boom)"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		fe, ok := r.(*Error)
		if !ok || fe.Msg != "boom" {
			t.Errorf("recovered %v, want *failpoint.Error{Msg: boom}", r)
		}
	}()
	_ = Inject("x.panic")
	t.Fatal("panic action did not panic")
}

func TestDelayAction(t *testing.T) {
	t.Cleanup(Reset)
	if err := Arm("x.delay", "delay(30ms)"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := Inject("x.delay"); err != nil {
		t.Fatalf("delay returned %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Errorf("delay waited only %v", d)
	}
}

func TestDelayRespectsContext(t *testing.T) {
	t.Cleanup(Reset)
	if err := Arm("x.delay", "delay(5s)"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := InjectCtx(ctx, "x.delay"); err != nil {
		t.Fatalf("delay returned %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("canceled delay still waited %v", d)
	}
}

func TestOneInNTrigger(t *testing.T) {
	t.Cleanup(Reset)
	if err := Arm("x.nth", "1-in-3->error"); err != nil {
		t.Fatal(err)
	}
	var trips int
	for i := 0; i < 9; i++ {
		if Inject("x.nth") != nil {
			trips++
		}
	}
	if trips != 3 {
		t.Errorf("1-in-3 over 9 calls tripped %d times, want 3", trips)
	}
	// First call fires (deterministic phase), so chaos runs hit the
	// failpoint even with few evaluations.
	Reset()
	if err := Arm("x.nth", "1-in-100->error"); err != nil {
		t.Fatal(err)
	}
	if Inject("x.nth") == nil {
		t.Error("1-in-100 did not fire on the first evaluation")
	}
}

func TestAfterAndTimesTriggers(t *testing.T) {
	t.Cleanup(Reset)
	if err := Arm("x.after", "after(3)->error"); err != nil {
		t.Fatal(err)
	}
	got := []bool{Inject("x.after") != nil, Inject("x.after") != nil, Inject("x.after") != nil, Inject("x.after") != nil}
	want := []bool{false, false, true, true}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("after(3) call %d fired=%v, want %v", i+1, got[i], want[i])
		}
	}

	if err := Arm("x.times", "times(2)->error"); err != nil {
		t.Fatal(err)
	}
	var trips int
	for i := 0; i < 10; i++ {
		if Inject("x.times") != nil {
			trips++
		}
	}
	if trips != 2 {
		t.Errorf("times(2) tripped %d times, want 2", trips)
	}
}

func TestSeededProbabilityIsDeterministic(t *testing.T) {
	t.Cleanup(Reset)
	run := func() []bool {
		Reset()
		if err := Arm("x.p", "p(0.3,42)->error"); err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 40)
		for i := range out {
			out[i] = Inject("x.p") != nil
		}
		return out
	}
	a, b := run(), run()
	var trips int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded runs diverge at call %d", i)
		}
		if a[i] {
			trips++
		}
	}
	if trips == 0 || trips == len(a) {
		t.Errorf("p(0.3) tripped %d/%d times; trigger looks degenerate", trips, len(a))
	}
}

func TestArmScheduleAndStats(t *testing.T) {
	t.Cleanup(Reset)
	err := ArmSchedule("a.one:error; b.two:1-in-2->delay(1ms); ;c.three:panic(x)")
	if err != nil {
		t.Fatal(err)
	}
	_ = Inject("a.one")
	_ = Inject("a.one")
	st := Stats()
	if len(st) != 3 {
		t.Fatalf("Stats len = %d, want 3: %+v", len(st), st)
	}
	if st[0].Name != "a.one" || st[0].Calls != 2 || st[0].Trips != 2 {
		t.Errorf("a.one stats = %+v", st[0])
	}
}

func TestBadSpecs(t *testing.T) {
	t.Cleanup(Reset)
	for _, spec := range []string{
		"", "explode", "delay(nope)", "delay(-1s)", "1-in-0->error",
		"p(2,1)->error", "p(0.5)->error", "after(x)->error", "wat->error",
	} {
		if err := Arm("x.bad", spec); err == nil {
			t.Errorf("Arm(%q) accepted", spec)
		}
	}
	if err := ArmSchedule("missing-colon-spec"); err == nil {
		t.Error("ArmSchedule accepted entry without colon")
	}
}

func TestDisarmAndOnTrip(t *testing.T) {
	t.Cleanup(Reset)
	var mu sync.Mutex
	var names []string
	SetOnTrip(func(name string) {
		mu.Lock()
		names = append(names, name)
		mu.Unlock()
	})
	defer SetOnTrip(nil)
	if err := Arm("x.hook", "error"); err != nil {
		t.Fatal(err)
	}
	_ = Inject("x.hook")
	Reset()
	if err := Inject("x.hook"); err != nil {
		t.Errorf("disarmed point tripped: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(names) != 1 || names[0] != "x.hook" {
		t.Errorf("OnTrip saw %v, want [x.hook]", names)
	}
}

func TestConcurrentInject(t *testing.T) {
	t.Cleanup(Reset)
	if err := Arm("x.conc", "1-in-2->error"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const goroutines, per = 8, 500
	trips := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if Inject("x.conc") != nil {
					trips[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	var total int
	for _, n := range trips {
		total += n
	}
	if total != goroutines*per/2 {
		t.Errorf("1-in-2 under concurrency tripped %d/%d", total, goroutines*per)
	}
}

func BenchmarkInjectDisarmed(b *testing.B) {
	Reset()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Inject("bench.off"); err != nil {
			b.Fatal(err)
		}
	}
}
