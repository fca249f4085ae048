package jobs

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/failpoint"
	"repro/internal/guard"
	"repro/internal/metrics"
	"repro/internal/uncertainty"
)

// Config configures an Engine.
type Config struct {
	// Dir is the checkpoint directory holding one write-ahead log per
	// job. Empty disables durability: jobs run in memory only and die
	// with the process.
	Dir string
	// Workers bounds concurrently running shards across all jobs
	// (default DefaultWorkers).
	Workers int
	// MaxRetries bounds retries per shard for escalatable failures
	// (default 4; a shard therefore runs at most MaxRetries+1 times).
	MaxRetries int
	// Backoff is the base retry delay, doubled per attempt with
	// deterministic jitter (default 50ms, capped at 2s).
	Backoff time.Duration
	// Registry receives the reljob_* metric families (default
	// metrics.Default()).
	Registry *metrics.Registry
	// Logf receives operational log lines (default: dropped).
	Logf func(format string, args ...any)
}

// engineMetrics holds the reljob_* instrument handles.
type engineMetrics struct {
	shards   *metrics.Counter
	jobs     *metrics.Counter
	samples  *metrics.Counter
	active   *metrics.Gauge
	progress *metrics.Gauge
	ckpt     *metrics.Histogram
	ckptErr  *metrics.Counter
}

// Engine runs sharded uncertainty sweeps asynchronously with durable
// checkpoints. All methods are safe for concurrent use.
type Engine struct {
	cfg        Config
	slots      chan struct{}
	rootCtx    context.Context
	rootCancel context.CancelFunc
	quit       chan struct{}
	wg         sync.WaitGroup
	m          engineMetrics

	mu       sync.Mutex
	jobs     map[string]*job
	byKey    map[string]string
	seq      int
	draining bool
}

// job is the engine-internal state of one sweep.
type job struct {
	id, key   string
	spec      *Spec
	total     int
	ctx       context.Context
	cancel    context.CancelFunc
	doneCh    chan struct{}
	wal       *wal
	submitted time.Time

	mu sync.Mutex
	// shards holds the completed shards until the job is terminal; then
	// only the result and the count in doneShards remain.
	shards       map[int]*uncertainty.ShardState
	doneShards   int
	retries      int64
	resumed      bool
	userCanceled bool
	state        State
	errMsg       string
	result       *uncertainty.SweepResult
	finished     time.Time
}

// DefaultWorkers is the shard concurrency New uses when cfg.Workers <= 0.
const DefaultWorkers = 4

// New builds an engine, creating the checkpoint directory when durable.
func New(cfg Config) (*Engine, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 4
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 50 * time.Millisecond
	}
	if cfg.Registry == nil {
		cfg.Registry = metrics.Default()
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("jobs: checkpoint dir: %w", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{
		cfg:        cfg,
		slots:      make(chan struct{}, cfg.Workers),
		rootCtx:    ctx,
		rootCancel: cancel,
		quit:       make(chan struct{}),
		jobs:       make(map[string]*job),
		byKey:      make(map[string]string),
	}
	reg := cfg.Registry
	e.m = engineMetrics{
		shards:   reg.NewCounter("reljob_shards_total", "Shard outcomes by state (done, retried, resumed, failed).", "state"),
		jobs:     reg.NewCounter("reljob_jobs_total", "Job lifecycle transitions by state.", "state"),
		samples:  reg.NewCounter("reljob_samples_done_total", "Model evaluations folded into checkpointed shards."),
		active:   reg.NewGauge("reljob_active_jobs", "Jobs currently running."),
		progress: reg.NewGauge("reljob_job_progress_ratio", "Completed-shard fraction per job.", "job"),
		ckpt:     reg.NewHistogram("reljob_checkpoint_seconds", "Write-ahead checkpoint append latency.", []float64{0.0001, 0.001, 0.01, 0.1, 1}),
		ckptErr:  reg.NewCounter("reljob_checkpoint_errors_total", "Write-ahead checkpoint appends that failed (shard stays in memory; resume recomputes)."),
	}
	return e, nil
}

// Recover replays every write-ahead log in the checkpoint directory:
// terminal jobs load as queryable history, incomplete jobs resume with
// their checkpointed shards pre-filled (only missing shards re-run). A
// log that fails replay is logged and skipped rather than bricking the
// engine. Returns the number of jobs resumed.
func (e *Engine) Recover() (int, error) {
	if e.cfg.Dir == "" {
		return 0, nil
	}
	paths, err := scanWALs(e.cfg.Dir)
	if err != nil {
		return 0, err
	}
	resumed := 0
	for _, path := range paths {
		wj, err := replayWAL(path)
		if err != nil {
			e.cfg.Logf("jobs: skipping unrecoverable log %s: %v", path, err)
			continue
		}
		if e.load(wj) {
			resumed++
		}
	}
	return resumed, nil
}

// load installs one replayed job, resuming it when incomplete.
func (e *Engine) load(wj *walJob) bool {
	sw, err := compile(wj.spec)
	if err != nil {
		e.cfg.Logf("jobs: %s: replayed spec no longer compiles: %v", wj.id, err)
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.jobs[wj.id]; ok {
		e.cfg.Logf("jobs: duplicate log for %s ignored", wj.id)
		return false
	}
	if n, err := strconv.Atoi(strings.TrimPrefix(wj.id, "j")); err == nil && n > e.seq {
		e.seq = n
	}
	ctx, cancel := context.WithCancel(e.rootCtx)
	j := &job{
		id: wj.id, key: wj.key, spec: wj.spec, total: wj.spec.shardCount(),
		ctx: ctx, cancel: cancel, doneCh: make(chan struct{}),
		shards: wj.shards, doneShards: len(wj.shards), resumed: true,
		state: StateRunning, submitted: time.Now(), //numvet:allow nondeterminism wall-clock bookkeeping, never feeds the computation
	}
	e.jobs[wj.id] = j
	if wj.key != "" {
		e.byKey[wj.key] = wj.id
	}
	if wj.state.terminal() {
		j.state, j.errMsg, j.result = wj.state, wj.errMsg, wj.result
		j.shards = nil
		j.finished = j.submitted
		close(j.doneCh)
		cancel()
		e.m.progress.Set(j.progressLocked(), j.id)
		return false
	}
	w, err := openWAL(e.cfg.Dir, wj.id)
	if err != nil {
		e.cfg.Logf("jobs: %s: cannot reopen log, resuming non-durably: %v", wj.id, err)
	} else {
		j.wal = w
	}
	e.m.shards.Add(float64(len(j.shards)), "resumed")
	e.m.jobs.Inc("resumed")
	e.m.active.Add(1)
	e.m.progress.Set(j.progressLocked(), j.id)
	e.wg.Add(1)
	go e.run(j, sw) //numvet:allow goroutine-no-ctx j carries its own cancelable context (j.ctx)
	return true
}

// Submit validates, persists, and starts a job. When idemKey is
// non-empty and a job with that key exists, the existing job's snapshot
// is returned with created=false and nothing new is started.
func (e *Engine) Submit(spec *Spec, idemKey string) (snap *Snapshot, created bool, err error) {
	spec.normalize()
	sw, err := compile(spec)
	if err != nil {
		return nil, false, err
	}
	e.mu.Lock()
	if e.draining {
		e.mu.Unlock()
		return nil, false, ErrDraining
	}
	if idemKey != "" {
		if id, ok := e.byKey[idemKey]; ok {
			j := e.jobs[id]
			e.mu.Unlock()
			return j.snapshot(), false, nil
		}
	}
	e.seq++
	id := "j" + strconv.Itoa(e.seq)
	ctx, cancel := context.WithCancel(e.rootCtx)
	j := &job{
		id: id, key: idemKey, spec: spec, total: spec.shardCount(),
		ctx: ctx, cancel: cancel, doneCh: make(chan struct{}),
		shards:    make(map[int]*uncertainty.ShardState),
		state:     StateRunning,
		submitted: time.Now(), //numvet:allow nondeterminism wall-clock bookkeeping, never feeds the computation
	}
	if e.cfg.Dir != "" {
		w, werr := openWAL(e.cfg.Dir, id)
		if werr == nil {
			werr = w.append(&walRecord{T: "spec", ID: id, Key: idemKey, Spec: spec})
		}
		if werr != nil {
			e.seq--
			e.mu.Unlock()
			cancel()
			if w != nil {
				w.Close() //numvet:allow ignored-err submission is already failing; the close is best-effort cleanup
			}
			return nil, false, fmt.Errorf("jobs: cannot persist job: %w", werr)
		}
		j.wal = w
	}
	e.jobs[id] = j
	if idemKey != "" {
		e.byKey[idemKey] = id
	}
	e.m.jobs.Inc("submitted")
	e.m.active.Add(1)
	e.m.progress.Set(0, id)
	e.wg.Add(1)
	e.mu.Unlock()
	go e.run(j, sw) //numvet:allow goroutine-no-ctx j carries its own cancelable context (j.ctx)
	return j.snapshot(), true, nil
}

// run executes a job's missing shards under the engine-wide worker
// limit, then folds and finalizes. It owns the job's WAL handle.
func (e *Engine) run(j *job, sw *sweep) {
	defer e.wg.Done()
	model := sw.model(j.ctx)
	j.mu.Lock()
	missing := make([]int, 0, j.total-j.doneShards)
	for i := 0; i < j.total; i++ {
		if _, ok := j.shards[i]; !ok {
			missing = append(missing, i)
		}
	}
	var failErr error
	j.mu.Unlock()
	var shardWG sync.WaitGroup
	for _, idx := range missing {
		shardWG.Add(1)
		go func(idx int) {
			defer shardWG.Done()
			select {
			case <-e.quit: // draining: queued shards stay queued
				return
			case <-j.ctx.Done():
				return
			case e.slots <- struct{}{}:
			}
			defer func() { <-e.slots }()
			// Re-check after winning the slot: a freed slot and a closed
			// quit channel race in the select above, and drain must not
			// keep feeding queued shards.
			select {
			case <-e.quit:
				return
			default:
			}
			st, err := e.runShard(j, sw, model, idx)
			if err != nil {
				j.mu.Lock()
				first := failErr == nil
				if first {
					failErr = err
				}
				j.mu.Unlock()
				// Sibling shards canceled by the first failure are not
				// failures themselves; count only the root cause.
				if first && !errors.Is(err, guard.ErrCanceled) && !errors.Is(err, guard.ErrDeadline) {
					e.m.shards.Inc("failed")
				}
				j.cancel() // first failure stops sibling shards
				return
			}
			e.checkpoint(j, st)
		}(idx)
	}
	shardWG.Wait()
	e.finish(j, failErr)
}

// runShard runs one shard with retry-on-escalatable-failure semantics:
// exponential backoff with deterministic jitter, bounded attempts, and
// the jobs.shard failpoint fired before every attempt.
func (e *Engine) runShard(j *job, sw *sweep, model uncertainty.Model, idx int) (*uncertainty.ShardState, error) {
	// The jitter stream is seeded from the sweep seed and shard index
	// (inverted so it never collides with the sample stream): retry
	// timing is reproducible under a fixed seed, like everything else.
	jit := uncertainty.ShardRNG(^sw.spec.Seed, idx)
	for attempt := 0; ; attempt++ { //numvet:allow unbounded-loop every iteration returns or increments attempt toward the MaxRetries return
		err := failpoint.InjectCtx(j.ctx, fpShard)
		var st *uncertainty.ShardState
		if err == nil {
			st, err = uncertainty.RunShard(j.ctx, model, sw.params, sw.plan(idx))
		}
		if err == nil {
			return st, nil
		}
		class := guard.Classify(err)
		if !class.Escalatable() || attempt >= e.cfg.MaxRetries {
			return nil, fmt.Errorf("jobs: shard %d attempt %d (class %s): %w", idx, attempt+1, class, err)
		}
		e.m.shards.Inc("retried")
		j.mu.Lock()
		j.retries++
		j.mu.Unlock()
		backoff := e.cfg.Backoff << attempt
		if backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
		backoff += time.Duration(jit.Int63n(int64(backoff)/2 + 1))
		e.cfg.Logf("jobs: %s shard %d attempt %d failed (%s), retrying in %v: %v", j.id, idx, attempt+1, class, backoff, err)
		if err := waitBackoff(j.ctx, backoff); err != nil {
			return nil, err
		}
	}
}

// waitBackoff sleeps interruptibly; a canceled context returns the
// typed guard interrupt instead of a bare sleep cut short.
func waitBackoff(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return guard.Ctx(ctx, "jobs.backoff", 0, math.NaN())
	case <-t.C:
		return nil
	}
}

// checkpoint folds a completed shard into the job and appends it to the
// write-ahead log. A failed append is counted and logged but does not
// fail the job: the shard result is still held in memory, and a resume
// after a crash merely recomputes it (determinism makes that safe).
func (e *Engine) checkpoint(j *job, st *uncertainty.ShardState) {
	j.mu.Lock()
	j.shards[st.Index] = st
	j.doneShards = len(j.shards)
	rec := &walRecord{T: "shard", Shard: st, Bitmap: bitmapHex(j.shards, j.total), Done: j.doneShards}
	var werr error
	if j.wal != nil {
		// The jobs.checkpoint.write failpoint fires on shard checkpoints
		// (not the submit-time spec record) so chaos tests can prove a
		// lost checkpoint costs recomputation, never correctness.
		werr = failpoint.Inject(fpCheckpoint)
		if werr == nil {
			start := time.Now() //numvet:allow nondeterminism checkpoint latency metric, never feeds the computation
			werr = j.wal.append(rec)
			e.m.ckpt.Observe(time.Since(start).Seconds())
		}
	}
	progress := j.progressLocked()
	j.mu.Unlock()
	if werr != nil {
		e.m.ckptErr.Inc()
		e.cfg.Logf("jobs: %s shard %d checkpoint append failed (will recompute on resume): %v", j.id, st.Index, werr)
	}
	e.m.shards.Inc("done")
	e.m.samples.Add(float64(st.N))
	e.m.progress.Set(progress, j.id)
}

// finish decides the job's terminal state (or leaves it running when a
// drain/abort interrupted it — the WAL then carries it to the next
// process) and durably records the outcome.
func (e *Engine) finish(j *job, failErr error) {
	j.mu.Lock()
	defer func() {
		j.mu.Unlock()
		close(j.doneCh)
	}()
	if j.wal != nil {
		defer j.wal.Close()
	}
	interrupted := failErr != nil &&
		(errors.Is(failErr, guard.ErrCanceled) || errors.Is(failErr, guard.ErrDeadline)) &&
		!j.userCanceled
	switch {
	case j.doneShards == j.total:
		ordered := make([]*uncertainty.ShardState, j.total)
		for i := range ordered {
			ordered[i] = j.shards[i]
		}
		result, err := uncertainty.FoldShards(ordered)
		if err != nil {
			e.terminalLocked(j, StateFailed, fmt.Sprintf("fold: %v", err), nil)
			return
		}
		e.terminalLocked(j, StateDone, "", result)
	case j.userCanceled:
		e.terminalLocked(j, StateCanceled, "", nil)
	case failErr != nil && !interrupted:
		e.terminalLocked(j, StateFailed, failErr.Error(), nil)
	default:
		// Drained or aborted mid-flight: no terminal record on purpose,
		// so the next process's Recover resumes from the checkpoints.
		e.m.active.Add(-1)
	}
}

// terminalLocked records a terminal transition and drops the job's
// shards; j.mu must be held.
func (e *Engine) terminalLocked(j *job, s State, msg string, result *uncertainty.SweepResult) {
	j.state, j.errMsg, j.result = s, msg, result
	j.shards = nil
	j.finished = time.Now() //numvet:allow nondeterminism wall-clock bookkeeping, never feeds the computation
	if j.wal != nil {
		if err := j.wal.append(&walRecord{T: "end", State: s, Error: msg, Result: result}); err != nil {
			e.m.ckptErr.Inc()
			e.cfg.Logf("jobs: %s terminal record append failed: %v", j.id, err)
		}
	}
	e.m.jobs.Inc(string(s))
	e.m.active.Add(-1)
	e.m.progress.Set(j.progressLocked(), j.id)
}

// progressLocked returns the completed fraction; j.mu must be held.
func (j *job) progressLocked() float64 {
	if j.total == 0 {
		return 0
	}
	return float64(j.doneShards) / float64(j.total)
}

// snapshot builds the external view of the job.
func (j *job) snapshot() *Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := &Snapshot{
		ID: j.id, State: j.state, Error: j.errMsg,
		Samples: j.spec.Samples, ShardSize: j.spec.ShardSize, Shards: j.total,
		DoneShards: j.doneShards, Retries: j.retries, Resumed: j.resumed,
		IdempotencyKey: j.key, Corr: j.spec.Corr, Submitted: j.submitted, Result: j.result,
	}
	if j.state.terminal() {
		t := j.finished
		s.Finished = &t
	}
	return s
}

// Get returns a job's snapshot.
func (e *Engine) Get(id string) (*Snapshot, error) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	e.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return j.snapshot(), nil
}

// List returns snapshots of every known job, ordered by numeric ID.
func (e *Engine) List() []*Snapshot {
	e.mu.Lock()
	js := make([]*job, 0, len(e.jobs))
	for _, j := range e.jobs {
		js = append(js, j)
	}
	e.mu.Unlock()
	out := make([]*Snapshot, 0, len(js))
	for _, j := range js {
		out = append(out, j.snapshot())
	}
	sort.Slice(out, func(a, b int) bool {
		na, _ := strconv.Atoi(strings.TrimPrefix(out[a].ID, "j"))
		nb, _ := strconv.Atoi(strings.TrimPrefix(out[b].ID, "j"))
		return na < nb
	})
	return out
}

// Cancel stops a running job and waits for it to reach a terminal
// state (shards observe cancellation at sample granularity, so the
// wait is bounded by one model evaluation).
func (e *Engine) Cancel(id string) (*Snapshot, error) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	e.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return nil, fmt.Errorf("%w: %s is %s", ErrTerminal, id, j.state)
	}
	j.userCanceled = true
	j.mu.Unlock()
	j.cancel()
	<-j.doneCh
	return j.snapshot(), nil
}

// Wait blocks until the job leaves the running state (or ctx expires)
// and returns its snapshot.
func (e *Engine) Wait(ctx context.Context, id string) (*Snapshot, error) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	e.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-j.doneCh:
		return j.snapshot(), nil
	}
}

// Close drains the engine: new submissions are refused, queued shards
// stay queued (their checkpoints carry them to the next process), and
// in-flight shards finish and checkpoint. If ctx expires first, the
// remaining shards are hard-canceled (still safe — an uncheckpointed
// shard is simply recomputed on resume).
func (e *Engine) Close(ctx context.Context) error {
	e.mu.Lock()
	if !e.draining {
		e.draining = true
		close(e.quit)
	}
	e.mu.Unlock()
	done := make(chan struct{})
	go func() { //numvet:allow goroutine-no-ctx bounded by wg.Wait; the select below handles ctx expiry
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		e.rootCancel()
		<-done
		return ctx.Err()
	}
}

// Abort simulates a crash for chaos tests: every shard is canceled
// immediately and nothing terminal is recorded, leaving exactly what a
// kill -9 would leave (the WAL's synced prefix).
func (e *Engine) Abort() {
	e.mu.Lock()
	if !e.draining {
		e.draining = true
		close(e.quit)
	}
	e.mu.Unlock()
	e.rootCancel()
	e.wg.Wait()
}
