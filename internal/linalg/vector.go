package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimensionMismatch is returned when operand shapes are incompatible.
var ErrDimensionMismatch = errors.New("linalg: dimension mismatch")

// ErrReducible reports a generator that GTH or SOR cannot solve because a
// state has no way out of its part of the chain. The solver's error ends
// with it: "gth: state 3 has no transitions to lower-indexed states;
// generator reducible".
var ErrReducible = errors.New("generator reducible")

// Dot returns the inner product of a and b.
// It returns an error if the vectors have different lengths.
func Dot(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("dot: len %d vs %d: %w", len(a), len(b), ErrDimensionMismatch)
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s, nil
}

// Norm1 returns the L1 norm of v.
func Norm1(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// NormInf returns the L-infinity norm of v.
func NormInf(v []float64) float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Sum returns the sum of the elements of v.
func Sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Scale multiplies every element of v by c in place and returns v.
func Scale(v []float64, c float64) []float64 {
	for i := range v {
		v[i] *= c
	}
	return v
}

// Normalize1 scales v in place so that its elements sum to one.
// It returns an error if the element sum is zero or not finite.
func Normalize1(v []float64) error {
	s := Sum(v)
	if s == 0 || math.IsNaN(s) || math.IsInf(s, 0) { //numvet:allow float-eq exact zero guards the division below
		return fmt.Errorf("normalize: element sum %v is not usable", s)
	}
	Scale(v, 1/s)
	return nil
}

// AXPY computes y[i] += a*x[i] in place.
// It returns an error if the vectors have different lengths.
func AXPY(a float64, x, y []float64) error {
	if len(x) != len(y) {
		return fmt.Errorf("axpy: len %d vs %d: %w", len(x), len(y), ErrDimensionMismatch)
	}
	for i := range x {
		y[i] += a * x[i]
	}
	return nil
}

// MaxAbsDiff returns the largest absolute element-wise difference between
// a and b, or an error when the lengths differ.
func MaxAbsDiff(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("maxabsdiff: len %d vs %d: %w", len(a), len(b), ErrDimensionMismatch)
	}
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m, nil
}

// Clone returns a copy of v.
func Clone(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}
