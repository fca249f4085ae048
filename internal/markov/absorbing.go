package markov

import (
	"fmt"

	"repro/internal/linalg"
)

// AbsorbingAnalysis holds the results of analyzing a chain with absorbing
// states: mean time to absorption, per-state expected sojourn times, and
// absorption probabilities.
type AbsorbingAnalysis struct {
	// MTTA is the mean time to absorption from the supplied initial
	// distribution.
	MTTA float64
	// Sojourn maps each transient state name to its expected total time
	// before absorption.
	Sojourn map[string]float64
	// AbsorbProb maps each absorbing state name to the probability that
	// absorption happens there.
	AbsorbProb map[string]float64
}

// Absorbing analyzes the chain treating the named states as absorbing
// (their outgoing transitions, if any, are ignored). In a reliability
// model the absorbing states are the system-failure states and MTTA is the
// system MTTF.
func (c *CTMC) Absorbing(p0 []float64, absorbing ...string) (*AbsorbingAnalysis, error) {
	v, err := c.checkInitial(p0)
	if err != nil {
		return nil, err
	}
	if len(absorbing) == 0 {
		return nil, fmt.Errorf("markov absorbing: no absorbing states given")
	}
	isAbs := make(map[int]bool, len(absorbing))
	for _, name := range absorbing {
		i, err := c.Index(name)
		if err != nil {
			return nil, err
		}
		isAbs[i] = true
	}
	// Partition states.
	var transIdx []int
	transPos := make(map[int]int) // global index -> position in transient block
	for i := range c.names {
		if !isAbs[i] {
			transPos[i] = len(transIdx)
			transIdx = append(transIdx, i)
		}
	}
	nt := len(transIdx)
	if nt == 0 {
		return nil, fmt.Errorf("markov absorbing: all states absorbing")
	}
	// Build dense Q_TT and Q_TA.
	qtt := linalg.NewDense(nt, nt)
	qta := make(map[int][]float64, len(absorbing)) // absorbing global idx -> column
	for _, t := range c.trans {
		if isAbs[t.from] {
			continue
		}
		fp := transPos[t.from]
		qtt.Add(fp, fp, -t.rate)
		if isAbs[t.to] {
			col, ok := qta[t.to]
			if !ok {
				col = make([]float64, nt)
				qta[t.to] = col
			}
			col[fp] += t.rate
		} else {
			qtt.Add(fp, transPos[t.to], t.rate)
		}
	}
	// Expected sojourn: solve tauᵀ·(-Q_TT) = p0_Tᵀ, i.e. (-Q_TT)ᵀ·tau = p0_T.
	negQTTt := linalg.NewDense(nt, nt)
	for i := 0; i < nt; i++ {
		for j := 0; j < nt; j++ {
			negQTTt.Set(i, j, -qtt.At(j, i))
		}
	}
	p0T := make([]float64, nt)
	for pos, gi := range transIdx {
		p0T[pos] = v[gi]
	}
	tau, err := linalg.LUSolve(negQTTt, p0T)
	if err != nil {
		return nil, fmt.Errorf("markov absorbing: transient block singular (absorption not certain from every state?): %w", err)
	}
	res := &AbsorbingAnalysis{
		Sojourn:    make(map[string]float64, nt),
		AbsorbProb: make(map[string]float64, len(absorbing)),
	}
	// MTTA sums the sojourns in state-index order, so the same chain
	// gives the same bits on every call.
	for pos, gi := range transIdx {
		if tau[pos] < 0 {
			tau[pos] = 0
		}
		res.Sojourn[c.names[gi]] = tau[pos]
		res.MTTA += tau[pos]
	}
	// Absorption probabilities: P(absorb at a) = Σ_i tau_i · q(i→a), plus
	// any initial mass already on a.
	for _, name := range absorbing {
		gi := c.index[name]
		p := v[gi]
		if col, ok := qta[gi]; ok {
			for i := 0; i < nt; i++ {
				p += tau[i] * col[i]
			}
		}
		res.AbsorbProb[name] = p
	}
	return res, nil
}

// MTTF returns the mean time to absorption treating the named states as
// failure (absorbing) states, starting from the named initial state.
func (c *CTMC) MTTF(initial string, failureStates ...string) (float64, error) {
	p0, err := c.InitialAt(initial)
	if err != nil {
		return 0, err
	}
	res, err := c.Absorbing(p0, failureStates...)
	if err != nil {
		return 0, err
	}
	return res.MTTA, nil
}

// ExpectedAccumulatedReward returns E[∫₀^T r(X(u)) du] where T is the
// absorption time: Σ_i sojourn_i · r(i).
func (c *CTMC) ExpectedAccumulatedReward(p0 []float64, reward func(state string) float64, absorbing ...string) (float64, error) {
	res, err := c.Absorbing(p0, absorbing...)
	if err != nil {
		return 0, err
	}
	// Sum in state-index order: Sojourn is a map.
	var total float64
	for _, name := range c.names {
		if soj, ok := res.Sojourn[name]; ok {
			total += soj * reward(name)
		}
	}
	return total, nil
}
