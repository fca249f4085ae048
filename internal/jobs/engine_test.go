package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/failpoint"
	"repro/internal/metrics"
	"repro/internal/modelio"
)

// testModelJSON is a two-state repairable pair: availability mu/(mu+lam).
const testModelJSON = `{"type":"ctmc","name":"pair","ctmc":{"transitions":[{"from":"up","to":"down","rate":0.01},{"from":"down","to":"up","rate":1}],"upStates":["up"],"measures":["availability"]}}`

func testSpec(samples, shardSize int, seed uint64) *Spec {
	return &Spec{
		Model:   json.RawMessage(testModelJSON),
		Measure: "availability",
		Params: []ParamSpec{
			{Name: "lambda", Dist: &modelio.DistSpec{Kind: "lognormal", Mu: math.Log(0.01), Sigma: 0.3}, From: "up", To: "down"},
			{Name: "mu", Dist: &modelio.DistSpec{Kind: "gamma", Shape: 4, Rate: 4}, From: "down", To: "up"},
		},
		Samples:   samples,
		ShardSize: shardSize,
		Seed:      seed,
	}
}

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}
	if cfg.Backoff == 0 {
		cfg.Backoff = time.Millisecond
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		e.Close(ctx)
	})
	return e
}

func waitDone(t *testing.T, e *Engine, id string) *Snapshot {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	snap, err := e.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestSubmitRunsToCompletion(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 4})
	snap, created, err := e.Submit(testSpec(200, 50, 7), "")
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("fresh submission reported as duplicate")
	}
	final := waitDone(t, e, snap.ID)
	if final.State != StateDone {
		t.Fatalf("state %s (%s), want done", final.State, final.Error)
	}
	if final.Result == nil || final.Result.N != 200 {
		t.Fatalf("result %+v, want N=200", final.Result)
	}
	if final.DoneShards != 4 || final.Shards != 4 {
		t.Fatalf("shards %d/%d, want 4/4", final.DoneShards, final.Shards)
	}
	if !(final.Result.Mean > 0.9 && final.Result.Mean < 1) {
		t.Fatalf("availability mean %g implausible", final.Result.Mean)
	}
	lo, _ := final.Result.Quantile(0.05)
	hi, _ := final.Result.Quantile(0.95)
	if !(lo < final.Result.Mean && final.Result.Mean < hi) {
		t.Fatalf("quantiles %g..%g do not bracket mean %g", lo, hi, final.Result.Mean)
	}
}

// TestResultIndependentOfWorkers pins the headline determinism claim:
// worker count changes scheduling only, never the folded bits.
func TestResultIndependentOfWorkers(t *testing.T) {
	var ref []byte
	for _, workers := range []int{1, 8} {
		e := newTestEngine(t, Config{Workers: workers})
		snap, _, err := e.Submit(testSpec(160, 20, 99), "")
		if err != nil {
			t.Fatal(err)
		}
		final := waitDone(t, e, snap.ID)
		if final.State != StateDone {
			t.Fatalf("workers=%d: state %s (%s)", workers, final.State, final.Error)
		}
		blob, err := json.Marshal(final.Result)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = blob
		} else if string(ref) != string(blob) {
			t.Fatalf("result depends on worker count:\n%s\n%s", ref, blob)
		}
	}
}

func TestIdempotentSubmission(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2})
	a, created, err := e.Submit(testSpec(40, 20, 1), "key-1")
	if err != nil || !created {
		t.Fatalf("first submit: created=%v err=%v", created, err)
	}
	b, created, err := e.Submit(testSpec(40, 20, 1), "key-1")
	if err != nil {
		t.Fatal(err)
	}
	if created || b.ID != a.ID {
		t.Fatalf("re-submission created=%v id=%s, want dedup onto %s", created, b.ID, a.ID)
	}
	c, _, err := e.Submit(testSpec(40, 20, 1), "key-2")
	if err != nil {
		t.Fatal(err)
	}
	if c.ID == a.ID {
		t.Fatal("distinct key deduped")
	}
	if b.IdempotencyKey != "key-1" {
		t.Fatalf("snapshot key %q, want key-1", b.IdempotencyKey)
	}
}

func TestBadSpecsRejected(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	bad := []func(*Spec){
		func(s *Spec) { s.Measure = "steadystate" }, // non-scalar
		func(s *Spec) { s.Model = json.RawMessage(`{"type":"rbd"}`) },
		func(s *Spec) { s.Params = nil },
		func(s *Spec) { s.Params[0].From = "nowhere" },
		func(s *Spec) { s.Params[1].Name = "lambda" }, // duplicate
		func(s *Spec) { s.Samples = 0 },
		func(s *Spec) { s.Quantiles = []float64{1.5} },
	}
	for i, mutate := range bad {
		s := testSpec(40, 20, 1)
		mutate(s)
		if _, _, err := e.Submit(s, ""); !errors.Is(err, ErrBadSpec) {
			t.Errorf("case %d: got %v, want ErrBadSpec", i, err)
		}
	}
	if _, err := ParseSpec([]byte(`{"unknown_field":1}`)); !errors.Is(err, ErrBadSpec) {
		t.Errorf("unknown field: got %v, want ErrBadSpec", err)
	}
}

func TestRetryOnInjectedFault(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	if err := failpoint.Arm(fpShard, "times(3)->error"); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	e := newTestEngine(t, Config{Workers: 2, Registry: reg})
	snap, _, err := e.Submit(testSpec(80, 20, 5), "")
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, e, snap.ID)
	if final.State != StateDone {
		t.Fatalf("state %s (%s), want done despite injected faults", final.State, final.Error)
	}
	if final.Retries < 3 {
		t.Fatalf("retries %d, want >= 3", final.Retries)
	}
	if got := e.m.shards.Value("retried"); got < 3 {
		t.Fatalf("reljob_shards_total{state=retried} = %g, want >= 3", got)
	}
}

func TestRetryExhaustionFailsJob(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	if err := failpoint.Arm(fpShard, "error"); err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, Config{Workers: 2, MaxRetries: 1})
	snap, _, err := e.Submit(testSpec(40, 20, 5), "")
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, e, snap.ID)
	if final.State != StateFailed || final.Error == "" {
		t.Fatalf("state %s error %q, want failed with message", final.State, final.Error)
	}
	if final.Result != nil {
		t.Fatal("failed job carries a result")
	}
}

func TestCancel(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	snap, _, err := e.Submit(testSpec(100000, 100, 3), "")
	if err != nil {
		t.Fatal(err)
	}
	canceled, err := e.Cancel(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if canceled.State != StateCanceled {
		t.Fatalf("state %s, want canceled", canceled.State)
	}
	if _, err := e.Cancel(snap.ID); !errors.Is(err, ErrTerminal) {
		t.Fatalf("second cancel: got %v, want ErrTerminal", err)
	}
	if _, err := e.Cancel("j999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown cancel: got %v, want ErrUnknownJob", err)
	}
}

// TestKillResumeBitIdentical is the durability headline: a job killed
// mid-flight, recovered by a second engine on the same directory, must
// finish with exactly the bits an uninterrupted run produces.
func TestKillResumeBitIdentical(t *testing.T) {
	spec := func() *Spec { return testSpec(1000, 40, 2024) } // 25 shards

	// Reference: uninterrupted run (before the failpoint arms — the
	// registry is process-global).
	ref := newTestEngine(t, Config{Workers: 4, Dir: filepath.Join(t.TempDir(), "ref")})
	rs, _, err := ref.Submit(spec(), "")
	if err != nil {
		t.Fatal(err)
	}
	want := waitDone(t, ref, rs.ID)
	if want.State != StateDone {
		t.Fatalf("reference run: %s (%s)", want.State, want.Error)
	}

	// Victim: the first 5 shard attempts run normally, every later one
	// blocks on an interruptible delay — so the kill deterministically
	// lands mid-flight with partial progress checkpointed.
	t.Cleanup(failpoint.Reset)
	if err := failpoint.Arm(fpShard, "after(6)->delay(30s)"); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "jobs")
	victim, err := New(Config{Workers: 2, Dir: dir, Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	vs, _, err := victim.Submit(spec(), "sweep-2024")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		snap, err := victim.Get(vs.ID)
		if err != nil {
			t.Fatal(err)
		}
		if snap.DoneShards >= 2 {
			break
		}
		if snap.State.terminal() {
			t.Fatalf("victim finished before it could be killed: %s", snap.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("victim made no progress to kill")
		}
		time.Sleep(2 * time.Millisecond)
	}
	victim.Abort()
	failpoint.Reset()

	// Survivor: recover on the same directory.
	reg := metrics.NewRegistry()
	survivor := newTestEngine(t, Config{Workers: 8, Dir: dir, Registry: reg, Logf: t.Logf})
	resumed, err := survivor.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 1 {
		t.Fatalf("resumed %d jobs, want 1", resumed)
	}
	final := waitDone(t, survivor, vs.ID)
	if final.State != StateDone {
		t.Fatalf("resumed job: %s (%s)", final.State, final.Error)
	}
	if !final.Resumed {
		t.Fatal("snapshot does not mark the job resumed")
	}
	if final.IdempotencyKey != "sweep-2024" {
		t.Fatalf("idempotency key lost across restart: %q", final.IdempotencyKey)
	}
	if got := survivor.m.shards.Value("resumed"); got < 2 {
		t.Fatalf("reljob_shards_total{state=resumed} = %g, want >= 2", got)
	}

	gotJSON, _ := json.Marshal(final.Result)
	wantJSON, _ := json.Marshal(want.Result)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("resumed result differs from uninterrupted run:\n%s\n%s", gotJSON, wantJSON)
	}
	// Re-submitting the same idempotency key after recovery must dedup
	// onto the finished job, not start a new sweep.
	again, created, err := survivor.Submit(spec(), "sweep-2024")
	if err != nil {
		t.Fatal(err)
	}
	if created || again.ID != vs.ID {
		t.Fatalf("post-recovery idempotency broken: created=%v id=%s", created, again.ID)
	}
}

// TestDrainLeavesResumableWAL proves graceful drain parks queued shards
// durably instead of discarding them.
func TestDrainLeavesResumableWAL(t *testing.T) {
	// Shard attempts beyond the third slow down so the drain
	// deterministically catches the job mid-flight; the delayed shard
	// still finishes and checkpoints (graceful drain, not a kill).
	t.Cleanup(failpoint.Reset)
	if err := failpoint.Arm(fpShard, "after(3)->delay(200ms)"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	e, err := New(Config{Workers: 1, Dir: dir, Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	snap, _, err := e.Submit(testSpec(2000, 40, 11), "")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		s, err := e.Get(snap.ID)
		if err != nil {
			t.Fatal(err)
		}
		if s.DoneShards >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no progress before drain")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Close(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	failpoint.Reset()
	mid, err := e.Get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if mid.State.terminal() {
		t.Fatalf("job reached %s before drain could park it", mid.State)
	}
	if _, _, err := e.Submit(testSpec(40, 20, 1), ""); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain: got %v, want ErrDraining", err)
	}

	e2 := newTestEngine(t, Config{Workers: 4, Dir: dir})
	resumed, err := e2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 1 {
		t.Fatalf("resumed %d, want 1", resumed)
	}
	final := waitDone(t, e2, snap.ID)
	if final.State != StateDone || final.Result.N != 2000 {
		t.Fatalf("drained job did not complete on resume: %+v", final)
	}
}

// TestCheckpointWriteFailureTolerated proves a failed WAL append costs
// recomputation on resume, never job failure.
func TestCheckpointWriteFailureTolerated(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	if err := failpoint.Arm(fpCheckpoint, "times(2)->error"); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	e := newTestEngine(t, Config{Workers: 2, Dir: t.TempDir(), Registry: reg})
	snap, _, err := e.Submit(testSpec(120, 20, 9), "")
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, e, snap.ID)
	if final.State != StateDone {
		t.Fatalf("state %s (%s), want done despite checkpoint faults", final.State, final.Error)
	}
	if got := e.m.ckptErr.Total(); got != 2 {
		t.Fatalf("reljob_checkpoint_errors_total = %g, want 2", got)
	}
}

func TestRecoverLoadsTerminalJobs(t *testing.T) {
	dir := t.TempDir()
	e := newTestEngine(t, Config{Workers: 2, Dir: dir})
	snap, _, err := e.Submit(testSpec(40, 20, 13), "")
	if err != nil {
		t.Fatal(err)
	}
	done := waitDone(t, e, snap.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.Close(ctx); err != nil {
		t.Fatal(err)
	}

	e2 := newTestEngine(t, Config{Workers: 2, Dir: dir})
	resumed, err := e2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 0 {
		t.Fatalf("terminal job resumed (%d), want history load only", resumed)
	}
	got, err := e2.Get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone {
		t.Fatalf("recovered state %s, want done", got.State)
	}
	a, _ := json.Marshal(got.Result)
	b, _ := json.Marshal(done.Result)
	if string(a) != string(b) {
		t.Fatalf("recovered result drifted:\n%s\n%s", a, b)
	}
	// A fresh submission must not collide with the recovered ID space.
	fresh, _, err := e2.Submit(testSpec(40, 20, 14), "")
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID == snap.ID {
		t.Fatalf("ID %s reused after recovery", fresh.ID)
	}
}

// shardsHeld reports whether the engine still holds shard state for a
// job.
func shardsHeld(t *testing.T, e *Engine, id string) bool {
	t.Helper()
	e.mu.Lock()
	j, ok := e.jobs[id]
	e.mu.Unlock()
	if !ok {
		t.Fatalf("unknown job %s", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.shards != nil
}

// TestTerminalJobDropsShards checks that a finished job keeps its result
// and its completed-shard count but no per-shard state, both when it
// finishes in this process and when Recover loads it from its log.
func TestTerminalJobDropsShards(t *testing.T) {
	dir := t.TempDir()
	e := newTestEngine(t, Config{Workers: 2, Dir: dir})
	snap, _, err := e.Submit(testSpec(100, 20, 5), "")
	if err != nil {
		t.Fatal(err)
	}
	done := waitDone(t, e, snap.ID)
	if done.State != StateDone || done.DoneShards != done.Shards || done.Shards != 5 {
		t.Fatalf("finished job: state %s, %d of %d shards", done.State, done.DoneShards, done.Shards)
	}
	if shardsHeld(t, e, snap.ID) {
		t.Fatal("finished job still holds its shards")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.Close(ctx); err != nil {
		t.Fatal(err)
	}

	e2 := newTestEngine(t, Config{Workers: 2, Dir: dir})
	if _, err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	got, err := e2.Get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.DoneShards != got.Shards || got.Result == nil {
		t.Fatalf("recovered job: %d of %d shards, result %v", got.DoneShards, got.Shards, got.Result)
	}
	if shardsHeld(t, e2, snap.ID) {
		t.Fatal("recovered terminal job holds its shards")
	}
}
