package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/failpoint"
	"repro/internal/metrics"
	"repro/internal/slo"
)

// Chaos drill model documents: a mix chosen to route traffic through
// every failpoint-instrumented layer (SOR/GTH steady state, uniformized
// transient, BDD compilation, the budgeted fault-tree fallback chain)
// plus deliberately bad inputs that must stay 4xx under fire.
var chaosDocs = []struct {
	name string
	doc  string
}{
	{"ctmc-chain", `{"type":"ctmc","name":"chaos-chain","ctmc":{
		"transitions":[{"from":"a","to":"b","rate":1},{"from":"b","to":"c","rate":2},{"from":"c","to":"a","rate":3}],
		"measures":["steadystate"],"solver":"chain"}}`},
	{"ctmc-transient", `{"type":"ctmc","name":"chaos-transient","ctmc":{
		"transitions":[{"from":"up","to":"down","rate":0.01},{"from":"down","to":"up","rate":1}],
		"initial":"up","upStates":["up"],"measures":["transient"],"time":10}}`},
	{"rbd", `{"type":"rbd","name":"chaos-rbd","rbd":{
		"components":[{"name":"a","lifetime":{"kind":"exponential","rate":0.001}},
			{"name":"b","lifetime":{"kind":"exponential","rate":0.001}}],
		"structure":{"op":"parallel","children":[{"comp":"a"},{"comp":"b"}]},
		"measures":["reliability"],"time":100}}`},
	{"faulttree-budget", `{"type":"faulttree","name":"chaos-ft","faulttree":{
		"events":[{"name":"e1","prob":0.01},{"name":"e2","prob":0.02},{"name":"e3","prob":0.03}],
		"top":{"op":"or","children":[{"op":"and","children":[{"event":"e1"},{"event":"e2"}]},{"event":"e3"}]},
		"measures":["top"],"bddBudget":2}}`},
	{"malformed", `{this is not json`},
	{"bad-measure", `{"type":"ctmc","name":"chaos-bad","ctmc":{
		"transitions":[{"from":"a","to":"b","rate":1}],"measures":["no-such-measure"]}}`},
}

// chaosSchedule builds the default seeded failpoint schedule. Every
// probabilistic trigger takes its stream from the run seed, so two runs
// with the same seed and request mix inject identical fault sequences.
func chaosSchedule(seed uint64) string {
	return strings.Join([]string{
		fmt.Sprintf("linalg.sor.sweep:p(0.02,%d)->error(chaos: sor sweep)", seed),
		"linalg.gth:1-in-13->error(chaos: gth)",
		fmt.Sprintf("markov.unif.step:p(0.02,%d)->error(chaos: unif step)", seed+1),
		"bdd.alloc:1-in-23->error(chaos: bdd alloc)",
		"modelio.build:1-in-17->error(chaos: build)",
		"modelio.parse:1-in-31->panic(chaos: parse)",
		"obs.store.put:1-in-11->panic(chaos: store)",
		fmt.Sprintf("linalg.power.step:p(0.05,%d)->delay(1ms)", seed+2),
	}, ";")
}

// chaosReport is the run summary printed as JSON.
type chaosReport struct {
	Requests       int            `json:"requests"`
	ByStatus       map[string]int `json:"by_status"`
	Degraded       int            `json:"degraded"`
	FailpointStats map[string]int `json:"failpoint_trips,omitempty"`
	BreakerCycleOK bool           `json:"breaker_cycle_ok"`
	// SLO captures the error-budget cycle: burn while faults were
	// injected, burn after a healthy recovery phase, and whether the
	// recovery strictly reduced it.
	SLO             chaosSLO `json:"slo"`
	GoroutinesStart int      `json:"goroutines_start"`
	GoroutinesEnd   int      `json:"goroutines_end"`
	Violations      []string `json:"violations,omitempty"`
}

// chaosSLO is the SLO leg of the chaos report.
type chaosSLO struct {
	BurnAtPeak      float64 `json:"burn_at_peak"`
	BudgetAtPeak    float64 `json:"budget_at_peak"`
	BurnRecovered   float64 `json:"burn_recovered"`
	RecoveryShrankB bool    `json:"recovery_shrank_burn"`
}

// allowedChaosStatus is the closed set of typed outcomes a request may
// end with under fault injection. Anything else — especially a hung
// request or a non-JSON 500 — is an invariant violation.
var allowedChaosStatus = map[int]bool{
	http.StatusOK:                  true,
	http.StatusBadRequest:          true,
	http.StatusUnprocessableEntity: true,
	http.StatusTooManyRequests:     true,
	http.StatusInternalServerError: true,
	http.StatusServiceUnavailable:  true,
	http.StatusGatewayTimeout:      true,
}

// runChaos implements the chaos subcommand: boot the real solve server
// with a seeded failpoint schedule, fire a client swarm at it, and
// assert the crash-only invariants — every request terminates with a
// typed outcome, no non-finite numbers escape, the circuit breaker
// opens and re-closes, and shutting the server down leaks no
// goroutines. Exits nonzero (error return) on any violation, so CI can
// gate on it.
func runChaos(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("relcli chaos", flag.ContinueOnError)
	requests := fs.Int("requests", 200, "total solve requests in the swarm")
	swarm := fs.Int("swarm", 8, "concurrent swarm clients")
	seed := fs.Uint64("seed", 42, "seed for the probabilistic failpoint triggers")
	schedule := fs.String("failpoints", "", "failpoint schedule override (default: built-in seeded schedule)")
	killResume := fs.Bool("kill-resume", false, "run the job-durability drill instead of the solve swarm: kill a server mid-sweep, resume from the WAL, demand bit-identical quantiles")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *killResume {
		return chaosKillResume(*seed, stdout)
	}
	sched := *schedule
	if sched == "" {
		sched = chaosSchedule(*seed)
	}
	failpoint.Reset()
	defer failpoint.Reset()

	var mu sync.Mutex
	rep := chaosReport{ByStatus: make(map[string]int), FailpointStats: make(map[string]int)}
	violate := func(format string, a ...any) {
		mu.Lock()
		defer mu.Unlock()
		if len(rep.Violations) < 32 {
			rep.Violations = append(rep.Violations, fmt.Sprintf(format, a...))
		}
	}

	reg := metrics.NewRegistry()
	_, mux, err := newSolveServer(serveConfig{
		Registry:    reg,
		MaxInflight: 4, QueueDepth: 4, QueueWait: 250 * time.Millisecond,
		BreakerThreshold: 3, BreakerCooldown: 300 * time.Millisecond,
		SolveTimeout: 5 * time.Second,
		Failpoints:   sched,
		SLOObjectives: []slo.Objective{
			{Name: "chaos-avail", Match: map[string]string{"route": "/solve"}, Target: 0.99},
		},
	})
	if err != nil {
		return err
	}
	rep.GoroutinesStart = runtime.NumGoroutine()
	ts := httptest.NewServer(mux)
	client := &http.Client{Timeout: 15 * time.Second}

	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < *swarm; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				d := chaosDocs[i%len(chaosDocs)]
				chaosOneRequest(client, ts.URL, d.name, d.doc, violate, &mu, &rep)
				if i%10 == 0 {
					chaosHealthz(client, ts.URL, violate)
				}
			}
		}()
	}
	for i := 0; i < *requests; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	chaosCountsAgree(reg, rep.ByStatus, violate)
	// Snapshot trip counts before the breaker drill re-arms the registry.
	for _, st := range failpoint.Stats() {
		if st.Trips > 0 {
			rep.FailpointStats[st.Name] = int(st.Trips)
		}
	}

	rep.BreakerCycleOK = chaosBreakerCycle(client, ts.URL, violate)
	rep.SLO = chaosSLOCycle(client, ts.URL, violate)

	ts.Close()
	// Goroutine-leak settle: the swarm, the server's connection
	// goroutines, and any solve workers must all unwind.
	deadline := time.Now().Add(3 * time.Second)
	for {
		rep.GoroutinesEnd = runtime.NumGoroutine()
		if rep.GoroutinesEnd <= rep.GoroutinesStart+2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if rep.GoroutinesEnd > rep.GoroutinesStart+2 {
		violate("goroutine leak: %d at start, %d after shutdown", rep.GoroutinesStart, rep.GoroutinesEnd)
	}

	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if len(rep.Violations) > 0 {
		return fmt.Errorf("chaos: %d invariant violation(s)", len(rep.Violations))
	}
	fmt.Fprintf(stdout, "chaos: %d requests, all invariants held\n", rep.Requests)
	return nil
}

// chaosOneRequest fires one solve and checks the per-response
// invariants: typed status, JSON body, error code on failures,
// Retry-After on backpressure, finite numbers on success.
func chaosOneRequest(client *http.Client, base, name, doc string, violate func(string, ...any), mu *sync.Mutex, rep *chaosReport) {
	resp, err := client.Post(base+"/solve", "application/json", strings.NewReader(doc))
	if err != nil {
		violate("%s: request did not terminate cleanly: %v", name, err)
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		violate("%s: body read: %v", name, err)
		return
	}
	mu.Lock()
	rep.Requests++
	rep.ByStatus[fmt.Sprint(resp.StatusCode)]++
	mu.Unlock()

	if !allowedChaosStatus[resp.StatusCode] {
		violate("%s: untyped status %d: %.200s", name, resp.StatusCode, body)
		return
	}
	var sr solveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		violate("%s: status %d body is not JSON: %.200s", name, resp.StatusCode, body)
		return
	}
	if resp.StatusCode != http.StatusOK && sr.Code == "" {
		violate("%s: status %d without a typed error code: %.200s", name, resp.StatusCode, body)
	}
	if resp.StatusCode == http.StatusTooManyRequests ||
		(resp.StatusCode == http.StatusServiceUnavailable && sr.Code != "canceled") {
		if resp.Header.Get("Retry-After") == "" {
			violate("%s: %d (%s) without Retry-After", name, resp.StatusCode, sr.Code)
		}
	}
	if resp.StatusCode == http.StatusOK {
		if sr.Degraded {
			mu.Lock()
			rep.Degraded++
			mu.Unlock()
		}
		for _, r := range sr.Results {
			if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) {
				violate("%s: non-finite result %s=%v escaped", name, r.Measure, r.Value)
			}
			if r.Bound != nil && (math.IsNaN(r.Bound.Lower) || math.IsNaN(r.Bound.Upper)) {
				violate("%s: non-finite bound on %s", name, r.Measure)
			}
		}
	}
}

// chaosCountsAgree asserts the server counted the swarm exactly as its
// clients saw it: relscope_solve_requests_total by code must equal the
// clients' by_status tally. A request counted twice, or under a status
// it was not answered with, breaks every availability number built on
// the count.
func chaosCountsAgree(reg *metrics.Registry, byStatus map[string]int, violate func(string, ...any)) {
	server := make(map[string]int)
	for _, f := range reg.Snapshot() {
		if f.Name != "relscope_solve_requests_total" {
			continue
		}
		for _, s := range f.Series {
			server[s.LabelValues[0]] = int(s.Value)
		}
	}
	if !maps.Equal(server, byStatus) {
		violate("server counted solve requests by status as %v, clients saw %v", server, byStatus)
	}
}

// killResumeReport is the JSON summary of the durability drill.
type killResumeReport struct {
	Job           string   `json:"job"`
	Shards        int      `json:"shards"`
	DoneAtKill    int      `json:"done_at_kill"`
	Resumed       int      `json:"resumed_jobs"`
	ResumedShards int      `json:"resumed_shards"`
	Identical     bool     `json:"result_identical"`
	Violations    []string `json:"violations,omitempty"`
}

// killResumeDoc is the drill's sweep: 30 shards of 50 samples over the
// two-state pair model with a lognormally uncertain failure rate. The
// seed inside the document, not wall-clock anything, determines every
// sampled value — the whole point of the drill.
const killResumeDoc = `{
  "model": {"type":"ctmc","name":"kill-resume","ctmc":{"transitions":[
    {"from":"up","to":"down","rate":0.01},{"from":"down","to":"up","rate":1}],
    "upStates":["up"],"measures":["availability"]}},
  "measure": "availability",
  "params": [{"name":"lambda","dist":{"kind":"lognormal","mu":-4.6,"sigma":0.3},"from":"up","to":"down"}],
  "samples": 1500,
  "shard_size": 50,
  "seed": %d
}`

// chaosKillResume is the durability drill behind `relcli chaos
// -kill-resume`: run a sweep job uninterrupted for reference, then run
// the same job on a checkpointing server that is killed mid-sweep (a
// stalled-shard failpoint guarantees the kill lands with work
// outstanding, and a checkpoint-write fault proves a lost checkpoint
// only costs recomputation), boot a fresh server over the same
// directory, and demand the resumed job finishes with bit-identical
// folded quantiles.
func chaosKillResume(seed uint64, stdout io.Writer) error {
	doc := fmt.Sprintf(killResumeDoc, seed)
	rep := killResumeReport{}
	violate := func(format string, a ...any) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(format, a...))
	}
	failpoint.Reset()
	defer failpoint.Reset()

	client := &http.Client{Timeout: 30 * time.Second}
	postJob := func(base string) (jobResponse, int) {
		req, _ := http.NewRequest(http.MethodPost, base+"/jobs", strings.NewReader(doc))
		req.Header.Set("Idempotency-Key", "kill-resume-drill")
		resp, err := client.Do(req)
		if err != nil {
			violate("job submit failed: %v", err)
			return jobResponse{}, 0
		}
		defer resp.Body.Close()
		var jr jobResponse
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			violate("job submit reply is not JSON: %v", err)
		}
		return jr, resp.StatusCode
	}
	getJob := func(base, id string) jobResponse {
		resp, err := client.Get(base + "/jobs/" + id)
		if err != nil {
			violate("job poll failed: %v", err)
			return jobResponse{}
		}
		defer resp.Body.Close()
		var jr jobResponse
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			violate("job poll reply is not JSON: %v", err)
		}
		return jr
	}
	waitState := func(base, id string, want func(*jobResponse) bool, what string) jobResponse {
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			jr := getJob(base, id)
			if jr.Job != nil && want(&jr) {
				return jr
			}
			time.Sleep(5 * time.Millisecond)
		}
		violate("timed out waiting for %s", what)
		return jobResponse{}
	}
	done := func(jr *jobResponse) bool { return jr.Job.State != "running" }

	// Reference: the same document, uninterrupted, in memory.
	_, refMux, err := newSolveServer(serveConfig{Registry: metrics.NewRegistry()})
	if err != nil {
		return err
	}
	refTS := httptest.NewServer(refMux)
	refSub, _ := postJob(refTS.URL)
	if refSub.Job == nil {
		refTS.Close()
		return fmt.Errorf("chaos: reference submission failed: %v", rep.Violations)
	}
	ref := waitState(refTS.URL, refSub.Job.ID, done, "reference run")
	refTS.Close()
	if ref.Job == nil || ref.Job.State != "done" {
		return fmt.Errorf("chaos: reference run did not finish: %v", rep.Violations)
	}
	refResult, _ := json.Marshal(ref.Job.Result)

	// Victim: durable server. One shard stalls for 30s from the 8th
	// attempt on, guaranteeing the kill lands mid-sweep; one checkpoint
	// append is eaten to prove durability does not depend on every
	// checkpoint landing.
	dir, err := os.MkdirTemp("", "relcli-kill-resume-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := failpoint.Arm("jobs.shard", "after(8)->delay(30s)"); err != nil {
		return err
	}
	if err := failpoint.Arm("jobs.checkpoint.write", "times(1)->error(chaos: checkpoint eaten)"); err != nil {
		return err
	}
	victim, victimMux, err := newSolveServer(serveConfig{
		Registry: metrics.NewRegistry(), JobsDir: dir, JobWorkers: 2,
	})
	if err != nil {
		return err
	}
	victimTS := httptest.NewServer(victimMux)
	sub, code := postJob(victimTS.URL)
	if sub.Job == nil {
		victimTS.Close()
		return fmt.Errorf("chaos: victim submission failed (%d): %v", code, rep.Violations)
	}
	rep.Job, rep.Shards = sub.Job.ID, sub.Job.Shards
	partial := waitState(victimTS.URL, sub.Job.ID,
		func(jr *jobResponse) bool { return jr.Job.DoneShards >= 3 }, "partial progress on the victim")
	if partial.Job != nil {
		rep.DoneAtKill = partial.Job.DoneShards
	}
	if rep.DoneAtKill >= rep.Shards {
		violate("victim finished before the kill; drill proves nothing")
	}
	// kill -9 equivalent: cancel every shard, record nothing terminal.
	victim.jobs.Abort()
	victimTS.Close()
	failpoint.Reset()

	// Survivor: fresh process over the same checkpoint directory.
	survivorReg := metrics.NewRegistry()
	survivor, survivorMux, err := newSolveServer(serveConfig{
		Registry: survivorReg, JobsDir: dir,
	})
	if err != nil {
		return err
	}
	rep.Resumed = survivor.jobsResumed
	if rep.Resumed != 1 {
		violate("survivor resumed %d jobs, want 1", rep.Resumed)
	}
	survivorTS := httptest.NewServer(survivorMux)
	final := waitState(survivorTS.URL, sub.Job.ID, done, "resumed run")
	if final.Job != nil {
		if final.Job.State != "done" {
			violate("resumed job ended %s (%s), want done", final.Job.State, final.Job.Error)
		}
		if !final.Job.Resumed {
			violate("resumed job not flagged as resumed")
		}
		got, _ := json.Marshal(final.Job.Result)
		rep.Identical = string(got) == string(refResult)
		if !rep.Identical {
			violate("resumed result differs from uninterrupted run:\n%s\n%s", got, refResult)
		}
	}
	// Idempotent re-submission must still dedupe after recovery.
	if replay, code := postJob(survivorTS.URL); replay.Job == nil || replay.Job.ID != sub.Job.ID || code != http.StatusOK {
		violate("post-recovery idempotent replay: got %v (%d), want job %s with 200", replay.Job, code, sub.Job.ID)
	}
	survivorTS.Close()
	// How many shards the survivor pre-filled from the log (the eaten
	// checkpoint means this can trail the kill-time count by one).
	for _, f := range survivorReg.Snapshot() {
		if f.Name != "reljob_shards_total" {
			continue
		}
		for _, s := range f.Series {
			if len(s.LabelValues) == 1 && s.LabelValues[0] == "resumed" {
				rep.ResumedShards = int(s.Value)
			}
		}
	}
	if rep.ResumedShards == 0 {
		violate("survivor resumed no checkpointed shards; the WAL was empty at the kill")
	}

	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if len(rep.Violations) > 0 {
		return fmt.Errorf("chaos: %d durability violation(s)", len(rep.Violations))
	}
	fmt.Fprintf(stdout, "chaos: kill at %d/%d shards, resume produced bit-identical quantiles\n", rep.DoneAtKill, rep.Shards)
	return nil
}

// chaosSLOCycle asserts the error budget burned during the injected-
// failure phases (the swarm and the breaker drill both fed 5xx into
// the /solve objective) and that a healthy recovery phase strictly
// reduces the burn rate — the SLO engine must both detect damage and
// let go of it. Runs after chaosBreakerCycle so at least one 5xx burst
// is guaranteed regardless of the probabilistic schedule.
func chaosSLOCycle(client *http.Client, base string, violate func(string, ...any)) chaosSLO {
	out := chaosSLO{}
	readSLO := func(when string) (burn, budget float64, ok bool) {
		resp, err := client.Get(base + "/api/slo")
		if err != nil {
			violate("slo cycle: /api/slo unreachable %s: %v", when, err)
			return 0, 0, false
		}
		defer resp.Body.Close()
		var payload struct {
			Enabled    bool `json:"enabled"`
			Objectives []struct {
				Name            string  `json:"name"`
				WorstBurn       float64 `json:"worst_burn"`
				BudgetRemaining float64 `json:"budget_remaining"`
			} `json:"objectives"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
			violate("slo cycle: /api/slo reply is not JSON %s: %v", when, err)
			return 0, 0, false
		}
		if !payload.Enabled || len(payload.Objectives) == 0 {
			violate("slo cycle: engine not enabled %s", when)
			return 0, 0, false
		}
		o := payload.Objectives[0]
		return o.WorstBurn, o.BudgetRemaining, true
	}

	burn, budget, ok := readSLO("after fault phase")
	if !ok {
		return out
	}
	out.BurnAtPeak, out.BudgetAtPeak = burn, budget
	if burn <= 0 {
		violate("slo cycle: no burn after injected failures (burn=%g)", burn)
		return out
	}

	// Recovery: healthy traffic dilutes the bad fraction in-window.
	const healthyDoc = `{"type":"ctmc","name":"slo-recovery","ctmc":{
		"transitions":[{"from":"u","to":"d","rate":1},{"from":"d","to":"u","rate":10}],
		"upStates":["u"],"measures":["availability"]}}`
	for i := 0; i < 100; i++ {
		resp, err := client.Post(base+"/solve", "application/json", strings.NewReader(healthyDoc))
		if err != nil {
			violate("slo cycle: recovery request failed: %v", err)
			return out
		}
		_, _ = io.Copy(io.Discard, resp.Body) //numvet:allow ignored-err drain before reuse; errors surface on the next request
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			violate("slo cycle: recovery request %d got status %d, want 200", i, resp.StatusCode)
			return out
		}
	}
	out.BurnRecovered, _, ok = readSLO("after recovery phase")
	if !ok {
		return out
	}
	out.RecoveryShrankB = out.BurnRecovered < out.BurnAtPeak
	if !out.RecoveryShrankB {
		violate("slo cycle: burn did not shrink under healthy traffic (%g -> %g)",
			out.BurnAtPeak, out.BurnRecovered)
	}
	return out
}

// chaosHealthz asserts the health endpoint stays answerable under load.
func chaosHealthz(client *http.Client, base string, violate func(string, ...any)) {
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		violate("healthz unreachable under load: %v", err)
		return
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		violate("healthz status %d under load", resp.StatusCode)
	}
}

// chaosBreakerCycle drives one full breaker open/re-close cycle against
// the live server: break the build layer until the ctmc breaker opens
// (503 breaker-open), clear the fault, wait out the cooldown, and
// demand the half-open probe restores 200s.
func chaosBreakerCycle(client *http.Client, base string, violate func(string, ...any)) bool {
	const doc = `{"type":"ctmc","name":"breaker-probe","ctmc":{
		"transitions":[{"from":"u","to":"d","rate":1},{"from":"d","to":"u","rate":10}],
		"upStates":["u"],"measures":["availability"]}}`
	post := func() (int, string) {
		resp, err := client.Post(base+"/solve", "application/json", strings.NewReader(doc))
		if err != nil {
			violate("breaker cycle: request failed: %v", err)
			return 0, ""
		}
		defer resp.Body.Close()
		var sr solveResponse
		_ = json.NewDecoder(resp.Body).Decode(&sr)
		return resp.StatusCode, sr.Code
	}

	failpoint.Reset()
	if err := failpoint.Arm("modelio.build", "error(chaos breaker drill)"); err != nil {
		violate("breaker cycle: arm: %v", err)
		return false
	}
	// The swarm may have left the ctmc breaker partially charged (or
	// already open), so drive failures until it trips rather than
	// counting to the threshold from zero.
	opened := false
	for i := 0; i < 10 && !opened; i++ {
		switch code, typed := post(); {
		case code == http.StatusInternalServerError:
			// feeding the consecutive-failure count
		case code == http.StatusServiceUnavailable && typed == "breaker-open":
			opened = true
		default:
			violate("breaker cycle: faulted request %d got %d (%s), want 500 or breaker-open", i, code, typed)
			return false
		}
	}
	if !opened {
		violate("breaker cycle: breaker never opened under sustained faults")
		return false
	}
	failpoint.Reset()
	time.Sleep(350 * time.Millisecond) // outlast the 300ms cooldown
	if code, typed := post(); code != http.StatusOK {
		violate("breaker cycle: probe after cooldown got %d (%s), want 200", code, typed)
		return false
	}
	return true
}
