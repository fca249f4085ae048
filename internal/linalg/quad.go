package linalg

import "math"

// Simpson integrates f over [a, b] with n (forced even) uniform panels
// using composite Simpson's rule.
func Simpson(f func(float64) float64, a, b float64, n int) float64 {
	if n < 2 {
		n = 2
	}
	if n%2 == 1 {
		n++
	}
	h := (b - a) / float64(n)
	s := f(a) + f(b)
	for i := 1; i < n; i++ {
		x := a + float64(i)*h
		if i%2 == 1 {
			s += 4 * f(x)
		} else {
			s += 2 * f(x)
		}
	}
	return s * h / 3
}

// AdaptiveSimpson integrates f over [a, b] to absolute tolerance tol using
// recursive adaptive Simpson quadrature with a depth limit.
func AdaptiveSimpson(f func(float64) float64, a, b, tol float64) float64 {
	if tol <= 0 {
		tol = 1e-10
	}
	c := (a + b) / 2
	fa, fb, fc := f(a), f(b), f(c)
	whole := (b - a) / 6 * (fa + 4*fc + fb)
	return adaptiveAux(f, a, b, tol, whole, fa, fb, fc, 50)
}

func adaptiveAux(f func(float64) float64, a, b, tol, whole, fa, fb, fc float64, depth int) float64 {
	c := (a + b) / 2
	l, r := (a+c)/2, (c+b)/2
	fl, fr := f(l), f(r)
	left := (c - a) / 6 * (fa + 4*fl + fc)
	right := (b - c) / 6 * (fc + 4*fr + fb)
	if depth <= 0 || math.Abs(left+right-whole) <= 15*tol {
		return left + right + (left+right-whole)/15
	}
	return adaptiveAux(f, a, c, tol/2, left, fa, fc, fl, depth-1) +
		adaptiveAux(f, c, b, tol/2, right, fc, fb, fr, depth-1)
}

// IntegrateToInf integrates f over [0, ∞) by mapping t = x/(1-x) onto
// (0,1). The tolerance is relative: a 200-panel Simpson pass on
// [0, 1-1e-9] estimates the magnitude, then adaptive Simpson on
// [0, 1-1e-12] refines to 1e-9·(1+|estimate|), about nine significant
// digits. f must decay to zero; survival functions R(t) of systems with
// finite MTTF qualify. A NaN from f reaches the result.
func IntegrateToInf(f func(float64) float64) float64 {
	g := func(x float64) float64 {
		if x >= 1 {
			return 0
		}
		return f(x/(1-x)) / ((1 - x) * (1 - x))
	}
	rough := Simpson(g, 0, 1-1e-9, 200)
	return AdaptiveSimpson(g, 0, 1-1e-12, 1e-9*(1+math.Abs(rough)))
}
