package core

import "math"

// RelativeError returns |actual-target| / |target|, falling back to the
// absolute error when the target is zero (where a relative error is
// undefined). It returns NaN if either argument is NaN.
func RelativeError(target, actual float64) float64 {
	if math.IsNaN(target) || math.IsNaN(actual) {
		return math.NaN()
	}
	diff := math.Abs(actual - target)
	if target == 0 { //numvet:allow float-eq zero target switches to absolute error
		return diff
	}
	return diff / math.Abs(target)
}
