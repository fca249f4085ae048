package guard

import (
	"errors"
	"math"
)

// Log-space probability arithmetic for the tiny failure probabilities the
// bounding paths work with (per-cut products like 1e-12^5 underflow the
// linear domain long before they stop mattering to a certified bound).

// ErrBadLogProb reports a probability outside [0,1] handed to a log-space
// helper.
var ErrBadLogProb = errors.New("guard: probability outside [0,1]")

// LogProb returns log(p) for p in [0,1], with log(0) = -Inf.
func LogProb(p float64) (float64, error) {
	if math.IsNaN(p) || p < 0 || p > 1 {
		return 0, ErrBadLogProb
	}
	return math.Log(p), nil
}

// LogSumExp returns log(Σ exp(x_i)) without overflow or underflow: the
// classic max-shifted form. An empty slice yields -Inf (the log of zero).
func LogSumExp(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	if math.IsInf(m, -1) {
		return math.Inf(-1)
	}
	if math.IsInf(m, 1) {
		return math.Inf(1)
	}
	var sum float64
	for _, x := range xs {
		sum += math.Exp(x - m)
	}
	return m + math.Log(sum)
}

// LogCutProb returns the log-probability of one cut set: Σ log p_i over
// the cut's component failure probabilities.
func LogCutProb(probs []float64) (float64, error) {
	var sum float64
	for _, p := range probs {
		lp, err := LogProb(p)
		if err != nil {
			return 0, err
		}
		sum += lp
	}
	return sum, nil
}

// LogRareEvent returns the log of the rare-event (first Bonferroni) upper
// bound min(1, Σ_j Π_i p_ji) given each cut's log-probability, evaluated
// entirely in log space so bounds like 1e-700 survive.
func LogRareEvent(logCuts []float64) float64 {
	s := LogSumExp(logCuts)
	if s > 0 {
		return 0 // the bound is capped at probability 1
	}
	return s
}
