package metrics

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestPrometheusGolden locks the exposition output byte-for-byte: family
// ordering, series ordering, HELP/TYPE lines, label escaping, histogram
// bucket triplets, and float formatting.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("relscope_test_total", "A counter with\nnewline and back\\slash help.", "solver", "model")
	c.Add(3, "sor", `farm "A"`)
	c.Inc("gth", "plain")
	g := r.NewGauge("relscope_resid", "Last residual.", "solver")
	g.Set(2.5e-11, "sor")
	h := r.NewHistogram("relscope_wall_seconds", "Wall time.", []float64{0.001, 0.1}, "solver")
	h.Observe(0.0005, "sor")
	h.Observe(0.05, "sor")
	h.Observe(7, "sor")
	// Registered but never observed: HELP/TYPE must still appear.
	r.NewCounter("relscope_empty_total", "Never incremented.")

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP relscope_empty_total Never incremented.
# TYPE relscope_empty_total counter
# HELP relscope_metrics_dropped_total Observations dropped due to metric misuse (label arity or registration conflicts).
# TYPE relscope_metrics_dropped_total counter
# HELP relscope_resid Last residual.
# TYPE relscope_resid gauge
relscope_resid{solver="sor"} 2.5e-11
# HELP relscope_test_total A counter with\nnewline and back\\slash help.
# TYPE relscope_test_total counter
relscope_test_total{solver="gth",model="plain"} 1
relscope_test_total{solver="sor",model="farm \"A\""} 3
# HELP relscope_wall_seconds Wall time.
# TYPE relscope_wall_seconds histogram
relscope_wall_seconds_bucket{solver="sor",le="0.001"} 1
relscope_wall_seconds_bucket{solver="sor",le="0.1"} 2
relscope_wall_seconds_bucket{solver="sor",le="+Inf"} 3
relscope_wall_seconds_sum{solver="sor"} 7.0505
relscope_wall_seconds_count{solver="sor"} 3
`
	if sb.String() != want {
		t.Errorf("exposition drifted.\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("x_total", "", "l")
	c.Inc("a\nb\\c\"d")
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `x_total{l="a\nb\\c\"d"} 1`) {
		t.Errorf("escaping wrong:\n%s", sb.String())
	}
}

// TestMisuseDropsNotPanics exercises every forgiving-failure path: label
// arity mismatches, negative counter deltas, and re-registration with a
// conflicting signature must all count into the dropped self-metric and
// leave existing families untouched.
func TestMisuseDropsNotPanics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "", "a")
	c.Inc()                                     // missing label
	c.Inc("x", "y")                             // extra label
	c.Add(-1, "x")                              // negative delta
	r.NewGauge("c_total", "")                   // kind conflict
	bad := r.NewCounter("c_total", "", "other") // label conflict
	bad.Inc("v")                                // dropped, not merged
	c.Inc("x")
	if got := c.Value("x"); got != 1 {
		t.Errorf("c{a=x} = %g, want 1", got)
	}
	dropped := r.NewCounter("relscope_metrics_dropped_total", "Observations dropped due to metric misuse (label arity or registration conflicts).")
	if got := dropped.Value(); got != 6 {
		t.Errorf("dropped = %g, want 6", got)
	}
}

func TestGaugeAndHistogram(t *testing.T) {
	r := NewRegistry()
	g := r.NewGauge("g", "")
	g.Set(5)
	g.Add(-2)
	if got := g.Value(); got != 3 {
		t.Errorf("gauge = %g, want 3", got)
	}
	h := r.NewHistogram("h", "", nil) // default buckets
	h.Observe(0.02)
	if got := histCount(h); got != 1 {
		t.Errorf("histogram count = %d, want 1", got)
	}
}

// TestRegistryRace hammers one registry from parallel writers while a
// reader repeatedly renders the exposition — the shape of a serve
// process being scraped mid-solve. Run under -race by scripts/check.sh.
func TestRegistryRace(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("race_total", "", "w")
	g := r.NewGauge("race_gauge", "", "w")
	h := r.NewHistogram("race_seconds", "", nil, "w")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			lbl := string(rune('a' + id))
			for i := 0; i < 500; i++ {
				c.Inc(lbl)
				g.Set(float64(i), lbl)
				h.Observe(float64(i)/1000, lbl)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	for w := 0; w < 8; w++ {
		lbl := string(rune('a' + w))
		if got := c.Value(lbl); got != 500 {
			t.Errorf("race_total{w=%s} = %g, want 500", lbl, got)
		}
		if got := histCount(h, lbl); got != 500 {
			t.Errorf("race_seconds{w=%s} count = %d, want 500", lbl, got)
		}
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("h_total", "Handled.").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != ContentType {
		t.Errorf("content type = %q", ct)
	}
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "h_total 1") {
		t.Errorf("body missing sample:\n%s", buf[:n])
	}
}

// histCount returns the observation count of one series of h.
func histCount(h *Histogram, labelValues ...string) uint64 {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	if s, ok := h.f.series[joinKey(labelValues)]; ok {
		return s.count
	}
	return 0
}
