package sim

import (
	"fmt"
	"math"
)

// Accumulator keeps running mean and variance with Welford's algorithm.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
}

// Add records one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// N returns the number of observations.
func (a *Accumulator) N() int { return a.n }

// Variance returns the unbiased sample variance.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdErr returns the standard error of the mean.
func (a *Accumulator) StdErr() float64 {
	if a.n < 2 {
		return math.Inf(1)
	}
	return math.Sqrt(a.Variance() / float64(a.n))
}

// CI holds a two-sided confidence interval.
type CI struct {
	Mean       float64
	Lo, Hi     float64
	HalfWidth  float64
	Confidence float64
	N          int
}

// Contains reports whether v lies in the interval.
func (c CI) Contains(v float64) bool { return v >= c.Lo && v <= c.Hi }

// String implements fmt.Stringer.
func (c CI) String() string {
	return fmt.Sprintf("%.6g ± %.3g (%.0f%%, n=%d)", c.Mean, c.HalfWidth, c.Confidence*100, c.N)
}

// Interval returns the normal-approximation confidence interval at the
// given level (e.g. 0.95). With fewer than 2 observations the interval is
// infinite.
func (a *Accumulator) Interval(level float64) CI {
	z := zQuantile(level)
	hw := z * a.StdErr()
	return CI{
		Mean:       a.mean,
		Lo:         a.mean - hw,
		Hi:         a.mean + hw,
		HalfWidth:  hw,
		Confidence: level,
		N:          a.n,
	}
}

// zQuantile returns the standard normal quantile for a two-sided interval
// at the given confidence level, covering the levels used in practice.
func zQuantile(level float64) float64 {
	switch {
	case level >= 0.999:
		return 3.2905
	case level >= 0.99:
		return 2.5758
	case level >= 0.95:
		return 1.9600
	case level >= 0.90:
		return 1.6449
	default:
		return 1.2816 // 0.80
	}
}
