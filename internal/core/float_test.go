package core

import (
	"math"
	"testing"
)

func TestRelativeError(t *testing.T) {
	if got := RelativeError(2, 2.002); math.Abs(got-0.001) > 1e-12 {
		t.Errorf("RelativeError(2, 2.002) = %g, want 0.001", got)
	}
	if got := RelativeError(0, 0.25); got != 0.25 {
		t.Errorf("RelativeError(0, 0.25) = %g, want absolute fallback 0.25", got)
	}
	if got := RelativeError(-4, -5); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("RelativeError(-4, -5) = %g, want 0.25", got)
	}
	if got := RelativeError(math.NaN(), 1); !math.IsNaN(got) {
		t.Errorf("RelativeError(NaN, 1) = %g, want NaN", got)
	}
}
