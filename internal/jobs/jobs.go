// Package jobs is a durable, crash-recoverable async job engine for
// sharded Monte Carlo uncertainty sweeps. A job takes a CTMC model
// document, a scalar measure, and a set of uncertain rate parameters,
// and estimates the output distribution over millions of samples
// without retaining them: each shard folds into exact moment sums plus
// streaming P² quantile estimators (see internal/uncertainty), and a
// finished job keeps only the folded result. The model is compiled once
// per job (see modelio.CTMCPlan), so a sample only writes its rates and
// solves.
//
// The robustness contract:
//
//   - every shard is a pure function of (seed, shard index, shard size,
//     spec), so shards run on any worker, in any order, with any retry
//     history, and the folded result is bit-identical;
//   - each completed shard is appended to a per-job write-ahead log
//     (JSONL, fsync per record) together with the completed-shard
//     bitmap, so a killed process resumes incomplete jobs on restart
//     and finishes with the same bits an uninterrupted run produces;
//   - transient shard failures (injected faults, solver non-convergence)
//     retry with exponential backoff and deterministic jitter; failures
//     guard classifies as non-escalatable fail the job immediately;
//   - submission is idempotent: re-posting a spec with the same
//     idempotency key returns the existing job instead of a duplicate.
package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/modelio"
	"repro/internal/uncertainty"
)

// Failpoints this package declares (see internal/failpoint).
const (
	// fpShard injects a fault into a shard attempt before it runs —
	// the knob chaos tests use to exercise the retry path.
	fpShard = "jobs.shard"
	// fpCheckpoint injects a fault into a WAL checkpoint append — the
	// knob for proving that a lost checkpoint only costs recomputation,
	// never correctness.
	fpCheckpoint = "jobs.checkpoint.write"
)

// Typed sentinels, matched with errors.Is.
var (
	// ErrBadSpec reports a job specification that fails validation.
	ErrBadSpec = errors.New("jobs: invalid job spec")
	// ErrUnknownJob reports a lookup of a job ID the engine never saw.
	ErrUnknownJob = errors.New("jobs: unknown job")
	// ErrDraining reports a submission against an engine that is
	// shutting down.
	ErrDraining = errors.New("jobs: engine draining")
	// ErrTerminal reports a cancel against a job that already finished.
	ErrTerminal = errors.New("jobs: job already terminal")
)

// ParamSpec declares one uncertain CTMC rate. The parameter targets
// every transition from From to To: with Scale false the sampled value
// replaces the rate, with Scale true it multiplies the declared rate
// (useful for "rate known to ±20%" style epistemic uncertainty).
type ParamSpec struct {
	Name  string            `json:"name"`
	Dist  *modelio.DistSpec `json:"dist"`
	From  string            `json:"from"`
	To    string            `json:"to"`
	Scale bool              `json:"scale,omitempty"`
}

// Spec is the submitted job document. Model is kept as raw JSON so the
// write-ahead log preserves the submitted document byte-for-byte —
// resume must replay exactly what was submitted, not a re-serialization.
type Spec struct {
	// Model is a full modelio document (currently type "ctmc" only).
	Model json.RawMessage `json:"model"`
	// Measure is the scalar CTMC measure swept: "availability" or "mtta".
	Measure string `json:"measure"`
	// Params are the uncertain rates.
	Params []ParamSpec `json:"params"`
	// Samples is the total number of model evaluations.
	Samples int `json:"samples"`
	// ShardSize is the number of samples per shard (default 1000).
	ShardSize int `json:"shard_size,omitempty"`
	// Seed seeds the sweep; every shard derives its own splitmix64
	// stream from (Seed, shard index).
	Seed uint64 `json:"seed"`
	// Quantiles are the tracked quantiles in (0,1); default
	// {0.05, 0.5, 0.95}.
	Quantiles []float64 `json:"quantiles,omitempty"`
	// Corr is the correlation ID of the submitting request, joining the
	// job (and its WAL record) to the request's traces and wide-event
	// log line. The serve layer overwrites whatever the client sent.
	Corr string `json:"corr,omitempty"`
}

// normalize fills defaults in place so the WAL records the effective
// values — a resumed job must not be re-defaulted by a newer binary.
func (s *Spec) normalize() {
	if s.ShardSize <= 0 {
		s.ShardSize = 1000
	}
	if s.ShardSize > s.Samples && s.Samples > 0 {
		s.ShardSize = s.Samples
	}
	if len(s.Quantiles) == 0 {
		s.Quantiles = []float64{0.05, 0.5, 0.95}
	}
}

// shardCount returns the number of shards the normalized spec cuts into.
func (s *Spec) shardCount() int {
	return (s.Samples + s.ShardSize - 1) / s.ShardSize
}

// State is a job lifecycle state.
type State string

const (
	// StateRunning marks a job with outstanding shards.
	StateRunning State = "running"
	// StateDone marks a successfully folded job.
	StateDone State = "done"
	// StateFailed marks a job aborted by a non-retryable (or
	// retry-exhausted) shard error.
	StateFailed State = "failed"
	// StateCanceled marks a job stopped by an explicit cancel.
	StateCanceled State = "canceled"
)

// terminal reports whether the state is final. The zero State (used by
// WAL replay for "no terminal record seen") is not terminal.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Snapshot is the externally visible view of a job, safe to serialize.
type Snapshot struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Error carries the failure message for StateFailed.
	Error string `json:"error,omitempty"`
	// Samples/ShardSize/Shards describe the normalized plan.
	Samples   int `json:"samples"`
	ShardSize int `json:"shard_size"`
	Shards    int `json:"shards"`
	// DoneShards counts checkpointed shards; Retries counts shard
	// attempts that failed and were retried.
	DoneShards int   `json:"done_shards"`
	Retries    int64 `json:"retries,omitempty"`
	// Resumed marks a job recovered from the write-ahead log after a
	// restart.
	Resumed bool `json:"resumed,omitempty"`
	// IdempotencyKey echoes the submission key, when one was given.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	// Corr echoes the submitting request's correlation ID.
	Corr string `json:"corr,omitempty"`
	// Submitted and Finished are wall-clock bookkeeping (reporting
	// only; they never influence the computation).
	Submitted time.Time  `json:"submitted"`
	Finished  *time.Time `json:"finished,omitempty"`
	// Result is the folded sweep summary, present once State is "done".
	Result *uncertainty.SweepResult `json:"result,omitempty"`
}

// Progress returns the completed-shard fraction in [0,1].
func (s *Snapshot) Progress() float64 { //numvet:allow unused-export template: index.gohtml calls .Progress for the Jobs panel
	if s.Shards == 0 {
		return 0
	}
	return float64(s.DoneShards) / float64(s.Shards)
}

// ParseSpec decodes and validates a job document.
func ParseSpec(raw []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	s.normalize()
	if _, err := compile(&s); err != nil {
		return nil, err
	}
	return &s, nil
}
