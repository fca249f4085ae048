package uncertainty

import (
	"errors"
	"math"
	"testing"
)

// TestPercentileIntervalEdgeCases pins the typed-error contract of the
// Result accessors: empty results and boundary quantiles return
// sentinel errors, never panic, never NaN.
func TestPercentileIntervalEdgeCases(t *testing.T) {
	full := &Result{Samples: []float64{1, 2, 3, 4, 5}, N: 5}
	cases := []struct {
		name    string
		res     *Result
		call    func(r *Result) (float64, error)
		wantErr error
	}{
		{"empty percentile", &Result{}, func(r *Result) (float64, error) { return r.Percentile(50) }, ErrNoSamples},
		{"nil-slice percentile", &Result{Samples: nil}, func(r *Result) (float64, error) { return r.Percentile(95) }, ErrNoSamples},
		{"empty interval", &Result{}, func(r *Result) (float64, error) { lo, _, err := r.Interval(0.9); return lo, err }, ErrNoSamples},
		{"p=0", full, func(r *Result) (float64, error) { return r.Percentile(0) }, ErrBadPercentile},
		{"p=100", full, func(r *Result) (float64, error) { return r.Percentile(100) }, ErrBadPercentile},
		{"p<0", full, func(r *Result) (float64, error) { return r.Percentile(-3) }, ErrBadPercentile},
		{"p>100", full, func(r *Result) (float64, error) { return r.Percentile(250) }, ErrBadPercentile},
		{"p NaN", full, func(r *Result) (float64, error) { return r.Percentile(math.NaN()) }, ErrBadPercentile},
		{"level=0", full, func(r *Result) (float64, error) { lo, _, err := r.Interval(0); return lo, err }, ErrBadPercentile},
		{"level=1", full, func(r *Result) (float64, error) { lo, _, err := r.Interval(1); return lo, err }, ErrBadPercentile},
		{"level NaN", full, func(r *Result) (float64, error) { lo, _, err := r.Interval(math.NaN()); return lo, err }, ErrBadPercentile},
		{"valid percentile", full, func(r *Result) (float64, error) { return r.Percentile(50) }, nil},
		{"valid interval", full, func(r *Result) (float64, error) { lo, _, err := r.Interval(0.5); return lo, err }, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v, err := tc.call(tc.res)
			if tc.wantErr == nil {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if math.IsNaN(v) {
					t.Fatal("valid query returned NaN")
				}
				return
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("got error %v, want %v", err, tc.wantErr)
			}
			if v != 0 {
				t.Fatalf("error path leaked value %g", v)
			}
		})
	}
}
