package uncertainty

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/failpoint"
	"repro/internal/guard"
)

// This file is the deterministic sharding substrate under the async job
// engine (internal/jobs): a million-sample sweep is cut into fixed-size
// shards, every shard draws from its own splitmix64-seeded RNG stream,
// and shard summaries fold — in shard-index order — into one sweep
// result. The contract that makes crash recovery provable:
//
//   - a shard's state after RunShard is a pure function of
//     (seed, shard index, shard size, params, model), so any shard is
//     exactly replayable on any worker, after any number of retries,
//     before or after a process restart;
//   - FoldShards combines per-shard states in index order with a
//     deterministic reduction, so the final result is independent of
//     worker count, scheduling order, and retry history.

// sm64Source is a rand.Source64 over a splitmix64 stream (the
// failpoint.SplitMix64 generator, so seeded chaos schedules and seeded
// sweeps share one reproducibility story): tiny, seedable, identical on
// every platform.
type sm64Source struct{ state uint64 }

func (s *sm64Source) Uint64() uint64 {
	_, s.state = failpoint.SplitMix64(s.state)
	return s.state
}

func (s *sm64Source) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *sm64Source) Seed(seed int64) { s.state = uint64(seed) }

// ShardRNG returns the deterministic RNG for one shard of a seeded
// sweep: stream i is the splitmix64 sequence starting at
// splitmix64(seed XOR golden·(i+1)), so neighboring shards get
// decorrelated streams from one user-visible seed.
func ShardRNG(seed uint64, shard int) *rand.Rand {
	_, state := failpoint.SplitMix64(seed ^ (0x9e3779b97f4a7c15 * uint64(shard+1)))
	return rand.New(&sm64Source{state: state})
}

// ShardState is the checkpointable accumulator of one completed (or
// in-flight) shard: exact moment sums plus one P² estimator per
// requested quantile, O(1) in the shard size. All fields are exported
// and JSON round-trips are exact, so the job engine's write-ahead log
// can persist a completed shard and restore it bit-identically.
type ShardState struct {
	// Index is the shard's position in the sweep (0-based).
	Index int `json:"index"`
	// N is the number of observations folded in.
	N int64 `json:"n"`
	// Sum and Sum2 are the exact running moment sums.
	Sum  float64 `json:"sum"`
	Sum2 float64 `json:"sum2"`
	// Min and Max are the observed extremes.
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	// Quantiles are the per-quantile P² estimators, in the sweep's
	// quantile order.
	Quantiles []*P2 `json:"quantiles,omitempty"`
}

// NewShardState builds an empty accumulator for the given quantiles.
func NewShardState(index int, quantiles []float64) (*ShardState, error) {
	st := &ShardState{Index: index, Quantiles: make([]*P2, 0, len(quantiles))}
	for _, p := range quantiles {
		est, err := NewP2(p)
		if err != nil {
			return nil, err
		}
		st.Quantiles = append(st.Quantiles, est)
	}
	return st, nil
}

// Observe folds one model output into the shard.
func (s *ShardState) Observe(x float64) {
	if s.N == 0 || x < s.Min {
		s.Min = x
	}
	if s.N == 0 || x > s.Max {
		s.Max = x
	}
	s.N++
	s.Sum += x
	s.Sum2 += x * x
	for _, q := range s.Quantiles {
		q.Observe(x)
	}
}

// Validate checks a shard restored from a checkpoint for structural
// sanity before it is trusted by a resumed sweep.
func (s *ShardState) Validate() error {
	if s.Index < 0 {
		return fmt.Errorf("uncertainty: shard index %d negative", s.Index)
	}
	if s.N < 0 {
		return fmt.Errorf("uncertainty: shard %d has negative count %d", s.Index, s.N)
	}
	if s.N > 0 && (math.IsNaN(s.Min) || math.IsNaN(s.Max) || s.Min > s.Max) {
		return fmt.Errorf("uncertainty: shard %d extremes invalid (min %g, max %g)", s.Index, s.Min, s.Max)
	}
	for _, q := range s.Quantiles {
		if q == nil {
			return fmt.Errorf("uncertainty: shard %d has a nil quantile estimator", s.Index)
		}
		if err := q.Validate(); err != nil {
			return fmt.Errorf("uncertainty: shard %d: %w", s.Index, err)
		}
		if q.Count != s.N {
			return fmt.Errorf("uncertainty: shard %d estimator count %d != shard count %d", s.Index, q.Count, s.N)
		}
	}
	return nil
}

// ShardPlan describes one shard of a seeded sweep.
type ShardPlan struct {
	// Index is the 0-based shard index; Size the number of samples.
	Index, Size int
	// Seed is the sweep-level seed the shard stream derives from.
	Seed uint64
	// Quantiles are the target quantiles, each in (0,1).
	Quantiles []float64
}

// RunShard evaluates one shard deterministically: the shard's RNG
// stream is derived from (Seed, Index), parameters are drawn in
// declaration order, and every model output folds into a fresh
// ShardState. The context interrupts between model evaluations with a
// typed *guard.InterruptError. Model evaluation errors abort the shard
// (the caller retries or fails the job; a partial shard is never
// checkpointed).
func RunShard(ctx context.Context, model Model, params []Param, plan ShardPlan) (*ShardState, error) {
	if model == nil {
		return nil, fmt.Errorf("uncertainty: nil model")
	}
	if len(params) == 0 {
		return nil, fmt.Errorf("uncertainty: no parameters")
	}
	for i, p := range params {
		if p.Name == "" || p.Dist == nil {
			return nil, fmt.Errorf("uncertainty: parameter %d incomplete", i)
		}
	}
	if plan.Size <= 0 {
		return nil, fmt.Errorf("uncertainty: shard %d has non-positive size %d", plan.Index, plan.Size)
	}
	st, err := NewShardState(plan.Index, plan.Quantiles)
	if err != nil {
		return nil, err
	}
	rng := ShardRNG(plan.Seed, plan.Index)
	assign := make(map[string]float64, len(params))
	for s := 0; s < plan.Size; s++ {
		if err := guard.Ctx(ctx, "uncertainty.shard", s, math.NaN()); err != nil {
			return nil, err
		}
		for _, p := range params {
			assign[p.Name] = p.Dist.Rand(rng)
		}
		out, err := model(assign)
		if err != nil {
			return nil, fmt.Errorf("uncertainty: shard %d evaluation %d: %w", plan.Index, s, err)
		}
		st.Observe(out)
	}
	return st, nil
}

// QuantileEstimate is one folded quantile of a sweep.
type QuantileEstimate struct {
	// P is the quantile in (0,1); Value the folded estimate.
	P     float64 `json:"p"`
	Value float64 `json:"value"`
}

// SweepResult summarizes a sharded sweep: exact moments and extremes,
// P²-estimated quantiles, all computed without sample retention.
type SweepResult struct {
	// N is the total number of model evaluations.
	N int64 `json:"n"`
	// Mean and StdDev are the exact sample moments.
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
	// Min and Max are the observed extremes.
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	// Quantiles are the folded quantile estimates in ascending P order.
	Quantiles []QuantileEstimate `json:"quantiles,omitempty"`
}

// FoldShards reduces per-shard states into one SweepResult. The
// reduction is deterministic: shards are processed in index order
// (required and verified — a gap or duplicate is an error), moments add
// exactly, and each quantile folds as the shard-size-weighted mean of
// the per-shard P² estimates. Feeding the same shard states always
// yields the same bits, which is what makes a resumed sweep's final
// result indistinguishable from an uninterrupted one.
func FoldShards(shards []*ShardState) (*SweepResult, error) {
	if len(shards) == 0 {
		return nil, ErrNoSamples
	}
	nq := len(shards[0].Quantiles)
	res := &SweepResult{}
	qsum := make([]float64, nq)
	for i, sh := range shards {
		if sh == nil {
			return nil, fmt.Errorf("uncertainty: fold: shard %d missing", i)
		}
		if sh.Index != i {
			return nil, fmt.Errorf("uncertainty: fold: shard %d out of order (index %d)", i, sh.Index)
		}
		if sh.N == 0 {
			return nil, fmt.Errorf("uncertainty: fold: shard %d is empty", i)
		}
		if len(sh.Quantiles) != nq {
			return nil, fmt.Errorf("uncertainty: fold: shard %d has %d quantiles, want %d", i, len(sh.Quantiles), nq)
		}
		if i == 0 || sh.Min < res.Min {
			res.Min = sh.Min
		}
		if i == 0 || sh.Max > res.Max {
			res.Max = sh.Max
		}
		res.N += sh.N
		res.Mean += sh.Sum    // reused as the running sum until the end
		res.StdDev += sh.Sum2 // reused as the running square sum
		for j, q := range sh.Quantiles {
			if i > 0 && shards[0].Quantiles[j].P != q.P { //numvet:allow float-eq quantile targets are configuration constants shared across shards
				return nil, fmt.Errorf("uncertainty: fold: shard %d quantile %d targets %g, want %g",
					i, j, q.P, shards[0].Quantiles[j].P)
			}
			v, err := q.Value()
			if err != nil {
				return nil, fmt.Errorf("uncertainty: fold: shard %d: %w", i, err)
			}
			qsum[j] += float64(sh.N) * v
		}
	}
	n := float64(res.N)
	sum, sum2 := res.Mean, res.StdDev
	res.Mean = sum / n
	variance := sum2/n - res.Mean*res.Mean
	if variance < 0 {
		variance = 0
	}
	res.StdDev = math.Sqrt(variance)
	res.Quantiles = make([]QuantileEstimate, 0, nq)
	for j, q := range shards[0].Quantiles {
		res.Quantiles = append(res.Quantiles, QuantileEstimate{P: q.P, Value: qsum[j] / n})
	}
	sort.Slice(res.Quantiles, func(a, b int) bool { return res.Quantiles[a].P < res.Quantiles[b].P })
	return res, nil
}

// Quantile returns the folded estimate for the target quantile p, or
// ErrBadPercentile when the sweep did not track it.
func (r *SweepResult) Quantile(p float64) (float64, error) {
	for _, q := range r.Quantiles {
		if q.P == p { //numvet:allow float-eq quantile targets are configuration constants
			return q.Value, nil
		}
	}
	return 0, fmt.Errorf("quantile %g not tracked by this sweep: %w", p, ErrBadPercentile)
}
