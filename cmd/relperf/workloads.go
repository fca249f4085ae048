package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/modelio"
	"repro/internal/obs"
)

// loadClients is the serve-* closed-loop client count: one per core of
// the two-core machine the benchmark is sized for. Measured there, two
// clients read steadier from run to run than one, whose idle waits
// between requests follow the neighbours' load.
const loadClients = 2

// verifyEvery is how often a serve-large reply is re-solved in process.
const verifyEvery = 64

// setupServer spawns the server cfg.setups times; each spawn is timed
// from process start to the end of warm, and all but the last are
// stopped. It returns the last server and the median set-up time.
func setupServer(cfg config, relcli, dir string, flags func(i int) []string, warm func(*server) error) (*server, float64, error) {
	var times []float64
	var s *server
	for i := 0; i < cfg.setups; i++ {
		if s != nil {
			s.stop()
		}
		var err error
		if s, err = startServer(relcli, dir, flags(i)...); err != nil {
			return nil, 0, err
		}
		if err := warm(s); err != nil {
			s.stop()
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
		times = append(times, time.Since(s.spawned).Seconds())
	}
	return s, median(times), nil
}

// serveWindow runs the closed loop over ndocs documents against a server
// for d, sampling the server process.
func serveWindow(s *server, c *http.Client, d time.Duration, ndocs int, body func(cl, seq int) []byte, check func(r *reply)) (*window, error) {
	return measure(s.cmd.Process.Pid, d, (*window).done, func(w *window, deadline time.Time) {
		closedLoop(w, deadline, c, s.base+"/solve", loadClients, ndocs, body, check)
	})
}

// serveMetrics fills the end-to-end metrics of a closed-loop window over
// ndocs documents, and reports the whole window's tail latencies with
// their sample count.
func serveMetrics(res *runResult, w *window, ndocs int) error {
	if len(w.ops) == 0 {
		return fmt.Errorf("no request completed in the window")
	}
	res.set("throughput", w.roundThroughput(loadClients, ndocs), "1/s")
	res.set("latency_ms", w.docLatency(), "ms")
	res.set("cpu_ms_per_op", w.cpuPerOp(), "ms")
	res.set("rss_mb", median(w.slices().rss), "MiB")
	lats := make([]time.Duration, len(w.ops))
	for i, o := range w.ops {
		lats[i] = o.lat
	}
	tails(res, millis(lats))
	return nil
}

// tails reports the window's p95 and p99 over every operation, each only
// when at least ten operations lie beyond it.
func tails(res *runResult, ms []float64) {
	for _, p := range []struct {
		name string
		q    float64
	}{{"latency_p95_ms", 0.95}, {"latency_p99_ms", 0.99}} {
		if float64(len(ms))*(1-p.q) >= 10 {
			res.extra(p.name, quantile(ms, p.q), "ms", len(ms))
		}
	}
}

// serveFixtures posts the bundled models round-robin. Every reply is
// kept by content hash; after the window each distinct reply is checked
// against an in-process solve of its document.
func serveFixtures(cfg config, dir string, res *runResult) error {
	fx, err := loadFixtures(cfg.root)
	if err != nil {
		return err
	}
	refs := make([][]modelio.Result, len(fx))
	for i, f := range fx {
		if refs[i], err = reference(f.doc); err != nil {
			return fmt.Errorf("%s: reference solve: %w", f.name, err)
		}
	}
	relcli, err := buildRelcli(cfg.root, cfg.bin)
	if err != nil {
		return err
	}
	c := newClient(loadClients)
	s, setup, err := setupServer(cfg, relcli, dir, func(int) []string { return nil }, func(s *server) error {
		for i, f := range fx {
			status, body, err := post(c, s.base+"/solve", f.doc)
			if err == nil && status != 200 {
				err = fmt.Errorf("%s: HTTP %d", f.name, status)
			}
			if err == nil {
				err = checkReply(body, refs[i])
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer s.stop()
	res.set("setup_s", setup, "s")

	type seen struct {
		body  []byte
		count int
	}
	distinct := make([]map[[2]uint64]*seen, loadClients)
	for i := range distinct {
		distinct[i] = map[[2]uint64]*seen{}
	}
	w, err := serveWindow(s, c, cfg.window, len(fx),
		func(cl, seq int) []byte { return fx[(cl+seq)%len(fx)].doc },
		func(r *reply) {
			if r.err != nil || r.status != 200 {
				res.fail("%s: %v", fx[(r.client+r.seq)%len(fx)].name, statusErr(r))
				return
			}
			h := fnv.New64a()
			h.Write(r.body)
			key := [2]uint64{uint64((r.client + r.seq) % len(fx)), h.Sum64()}
			if e := distinct[r.client][key]; e != nil {
				e.count++
			} else {
				distinct[r.client][key] = &seen{body: r.body, count: 1}
			}
		})
	if err != nil {
		return err
	}
	res.Attempted = int64(len(w.ops))
	for _, m := range distinct {
		for key, e := range m {
			if err := checkReply(e.body, refs[key[0]]); err != nil {
				res.fail("%s: %v", fx[key[0]].name, err)
				res.Failed += int64(e.count - 1)
			}
		}
	}
	return serveMetrics(res, w, len(fx))
}

// largeClient is one serve-large client's private state: its own copy of
// every template to splice into and its own value stream.
type largeClient struct {
	bufs [][]byte
	rng  *rand.Rand
}

func newLargeClients(tpls []*template, seed int64, n int) []*largeClient {
	out := make([]*largeClient, n)
	for i := range out {
		lc := &largeClient{rng: rand.New(rand.NewSource(seed*1000003 + int64(i)))}
		for _, t := range tpls {
			lc.bufs = append(lc.bufs, append([]byte(nil), t.doc...))
		}
		out[i] = lc
	}
	return out
}

// next splices a fresh value into the client's copy of template seq and
// returns it; the buffer is reused once the reply has been read.
func (lc *largeClient) next(tpls []*template, cl, seq int) []byte {
	i := (cl + seq) % len(tpls)
	tpls[i].splice(lc.bufs[i], tpls[i].draw(lc.rng))
	return lc.bufs[i]
}

// serveLarge posts the generated documents round-robin, each with a
// freshly spliced number. Every 64th request is kept and re-solved in
// process after the window.
func serveLarge(cfg config, dir string, res *runResult) error {
	tpls := largeTemplates(cfg.seed)
	relcli, err := buildRelcli(cfg.root, cfg.bin)
	if err != nil {
		return err
	}
	c := newClient(loadClients)
	s, setup, err := setupServer(cfg, relcli, dir, func(int) []string { return nil }, func(s *server) error {
		for _, t := range tpls {
			status, body, err := post(c, s.base+"/solve", t.doc)
			if err != nil || status != 200 {
				return fmt.Errorf("%s: %v", t.name, statusErr(&reply{status: status, body: body, err: err}))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer s.stop()
	res.set("setup_s", setup, "s")

	lcs := newLargeClients(tpls, cfg.seed, loadClients)
	type sample struct{ doc, body []byte }
	kept := make([][]sample, loadClients)
	var count atomic.Int64
	w, err := serveWindow(s, c, cfg.window, len(tpls),
		func(cl, seq int) []byte { return lcs[cl].next(tpls, cl, seq) },
		func(r *reply) {
			if r.err != nil || r.status != 200 {
				res.fail("%s: %v", tpls[(r.client+r.seq)%len(tpls)].name, statusErr(r))
				return
			}
			if count.Add(1)%verifyEvery == 1 {
				doc := append([]byte(nil), lcs[r.client].bufs[(r.client+r.seq)%len(tpls)]...)
				kept[r.client] = append(kept[r.client], sample{doc, r.body})
			}
		})
	if err != nil {
		return err
	}
	res.Attempted = int64(len(w.ops))
	for _, ks := range kept {
		for _, k := range ks {
			want, err := reference(k.doc)
			if err == nil {
				err = checkReply(k.body, want)
			}
			if err != nil {
				res.fail("re-solve: %v", err)
			}
		}
	}
	return serveMetrics(res, w, len(tpls))
}

// jobReply is the part of a /jobs reply the benchmark reads.
type jobReply struct {
	Job *jobs.Snapshot `json:"job"`
}

// Sweep clients poll a job's state every pollEvery; the warm-up job polls
// every warmPollEvery, because set-up time ends when the client sees the
// job done and a 50 ms step is a quarter of a set-up.
const (
	pollEvery     = 50 * time.Millisecond
	warmPollEvery = 5 * time.Millisecond
)

// runJob submits one sweep job and polls it every poll until it leaves
// the running state, giving up after two minutes.
func runJob(c *http.Client, base string, spec []byte, poll time.Duration) (*jobs.Snapshot, error) {
	status, body, err := post(c, base+"/jobs", spec)
	if err != nil {
		return nil, err
	}
	if status != 201 {
		return nil, fmt.Errorf("POST /jobs: HTTP %d: %.200s", status, body)
	}
	giveUp := time.Now().Add(2 * time.Minute)
	for {
		var jr jobReply
		if err := json.Unmarshal(body, &jr); err != nil || jr.Job == nil {
			return nil, fmt.Errorf("/jobs: bad reply: %.200s", body)
		}
		if jr.Job.State != jobs.StateRunning {
			return jr.Job, nil
		}
		if time.Now().After(giveUp) {
			return nil, fmt.Errorf("job %s still running after two minutes", jr.Job.ID)
		}
		time.Sleep(poll)
		if body, err = get(c, base+"/jobs/"+jr.Job.ID); err != nil {
			return nil, err
		}
	}
}

// sweepCheck verifies a finished job: done, ordered quantiles, and a
// median within 1% of the exact availability (the scale factor has
// median 1 and availability is monotone in the rate).
func sweepCheck(snap *jobs.Snapshot, exact float64) error {
	if snap.State != jobs.StateDone || snap.Result == nil || snap.Finished == nil {
		return fmt.Errorf("job %s ended %s: %s", snap.ID, snap.State, snap.Error)
	}
	var q [3]float64
	for i, p := range []float64{0.05, 0.5, 0.95} {
		v, err := snap.Result.Quantile(p)
		if err != nil {
			return err
		}
		q[i] = v
	}
	if !(q[0] <= q[1] && q[1] <= q[2]) {
		return fmt.Errorf("job %s: quantiles disordered: %v", snap.ID, q)
	}
	if e := core.RelativeError(exact, q[1]); !(e <= 0.01) {
		return fmt.Errorf("job %s: P50 %g vs exact %g (rel err %g)", snap.ID, q[1], exact, e)
	}
	return nil
}

// sweepModel loads the sweep's model and its exact availability.
func sweepModel(root string) ([]byte, float64, error) {
	model, err := os.ReadFile(filepath.Join(root, "models", "repairfarm.json"))
	if err != nil {
		return nil, 0, err
	}
	res, err := reference(model)
	if err != nil {
		return nil, 0, err
	}
	for _, r := range res {
		if r.Measure == "availability" {
			return model, r.Value, nil
		}
	}
	return nil, 0, fmt.Errorf("repairfarm.json has no availability measure")
}

// sweep runs back-to-back sweep jobs, one at a time, against a server
// with a durable job directory. The server already runs a job's shards
// on every core, so a second client would only measure the two jobs
// contending. A job is one operation; its latency is the server's own
// submitted-to-finished time. The warm-up job is a fifth of the size.
func sweep(cfg config, dir string, res *runResult) error {
	model, exact, err := sweepModel(cfg.root)
	if err != nil {
		return err
	}
	relcli, err := buildRelcli(cfg.root, cfg.bin)
	if err != nil {
		return err
	}
	c := newClient(1)
	jobSeed := uint64(cfg.seed) << 20
	s, setup, err := setupServer(cfg, relcli, dir,
		func(i int) []string { return []string{"-jobs-dir", filepath.Join(dir, fmt.Sprintf("jobs%d", i))} },
		func(s *server) error {
			snap, err := runJob(c, s.base, sweepSpec(model, cfg.jobSamples/5, jobSeed), warmPollEvery)
			if err == nil {
				err = sweepCheck(snap, exact)
			}
			return err
		})
	if err != nil {
		return err
	}
	defer s.stop()
	res.set("setup_s", setup, "s")

	var (
		lats      []time.Duration
		first     *jobs.Snapshot
		firstSeed uint64
	)
	// The server's own sample counter gives each slice's throughput; a
	// separate connection keeps the scrape from queueing behind polls.
	sc := newClient(1)
	work := func(*window) float64 {
		prom, err := get(sc, s.base+"/metrics")
		if err != nil {
			return math.NaN()
		}
		return promSum(string(prom), "reljob_samples_done_total", "") / float64(cfg.jobSamples)
	}
	w, err := measure(s.cmd.Process.Pid, cfg.window, work, func(w *window, deadline time.Time) {
		for seed := jobSeed + 1; time.Now().Before(deadline); seed++ {
			snap, err := runJob(c, s.base, sweepSpec(model, cfg.jobSamples, seed), pollEvery)
			if err == nil {
				err = sweepCheck(snap, exact)
			}
			res.Attempted++
			if err != nil {
				res.fail("%v", err)
				continue
			}
			lats = append(lats, snap.Finished.Sub(snap.Submitted))
			if first == nil {
				first, firstSeed = snap, seed
			}
		}
	})
	if err != nil {
		return err
	}
	if first == nil {
		return fmt.Errorf("no sweep job completed in the window")
	}
	if err := sameAsInProcess(model, cfg.jobSamples, firstSeed, first); err != nil {
		res.fail("%v", err)
	}
	// Each job is its own latency slice.
	st := w.slices()
	ms := millis(lats)
	res.set("throughput", median(st.throughput), "1/s")
	res.set("latency_ms", median(ms), "ms")
	res.set("cpu_ms_per_op", w.cpuPerOp(), "ms")
	res.set("rss_mb", median(st.rss), "MiB")
	res.extra("samples_per_s", median(st.throughput)*float64(cfg.jobSamples), "1/s", 0)
	tails(res, ms)
	return nil
}

// sameAsInProcess reruns a served job in an in-process engine with a
// different worker count and demands a bit-identical result.
func sameAsInProcess(model []byte, samples int, seed uint64, served *jobs.Snapshot) error {
	spec, err := jobs.ParseSpec(sweepSpec(model, samples, seed))
	if err != nil {
		return err
	}
	eng, err := jobs.New(jobs.Config{Workers: 1, Registry: metrics.NewRegistry()})
	if err != nil {
		return err
	}
	defer eng.Close(context.Background())
	snap, _, err := eng.Submit(spec, "")
	if err != nil {
		return err
	}
	local, err := eng.Wait(context.Background(), snap.ID)
	if err != nil {
		return err
	}
	a, err1 := json.Marshal(served.Result)
	b, err2 := json.Marshal(local.Result)
	if err1 != nil || err2 != nil || string(a) != string(b) {
		return fmt.Errorf("job %s: served result differs from the in-process 1-worker run", served.ID)
	}
	return nil
}

// suite repeats complete passes of the experiment suite in process.
// One pass is one operation.
func suite(cfg config, res *runResult) error {
	var times []float64
	for i := 0; i < cfg.setups; i++ {
		start := time.Now()
		exps, err := suiteExperiments(cfg.suiteIDs)
		if err != nil {
			return err
		}
		suitePass(exps, res, nil)
		if res.Failed > 0 {
			return fmt.Errorf("warm-up: %s", res.Errors[0])
		}
		times = append(times, time.Since(start).Seconds())
	}
	res.set("setup_s", median(times), "s")
	exps, err := suiteExperiments(cfg.suiteIDs)
	if err != nil {
		return err
	}
	res.Attempted, res.Failed, res.Errors = 0, 0, nil
	// Passes run one at a time, so each pass is its own slice.
	var walls, cpus, rss []float64
	start := time.Now()
	for time.Since(start) < cfg.window {
		cpu0, t0 := selfCPU(), time.Now()
		suitePass(exps, res, nil)
		walls = append(walls, float64(time.Since(t0).Nanoseconds())/1e6)
		cpus = append(cpus, float64((selfCPU()-cpu0).Microseconds())/1000)
		r, err := procRSS(os.Getpid())
		if err != nil {
			return err
		}
		rss = append(rss, r)
	}
	res.set("throughput", 1000/median(walls), "1/s")
	res.set("latency_ms", median(walls), "ms")
	res.set("cpu_ms_per_op", median(cpus), "ms")
	res.set("rss_mb", median(rss), "MiB")
	sort.Float64s(walls)
	tails(res, walls)
	return nil
}

// suiteExperiments resolves the experiments a pass runs.
func suiteExperiments(ids []string) ([]core.Experiment, error) {
	reg, err := experiments.Registry()
	if err != nil {
		return nil, err
	}
	if ids == nil {
		ids = reg.IDs()
	}
	out := make([]core.Experiment, 0, len(ids))
	for _, id := range ids {
		e, err := reg.Get(id)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// suitePass runs every experiment once, counting each as attempted and
// any error or empty table as failed. each, when set, sees every
// experiment's wall time.
func suitePass(exps []core.Experiment, res *runResult, each func(id string, d time.Duration)) {
	for _, e := range exps {
		t0 := time.Now()
		tbl, err := e.Run(obs.Nop())
		d := time.Since(t0)
		res.Attempted++
		switch {
		case err != nil:
			res.fail("%s: %v", e.ID, err)
		case tbl == nil || len(tbl.Rows) == 0:
			res.fail("%s: empty table", e.ID)
		}
		if each != nil {
			each(e.ID, d)
		}
	}
}

// selfCPU returns this process's user plus system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
