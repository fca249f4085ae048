package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/failpoint"
	"repro/internal/guard"
	"repro/internal/jobs"
	"repro/internal/lint"
	"repro/internal/metrics"
	"repro/internal/modelio"
	"repro/internal/obs"
	"repro/internal/reldash"
	"repro/internal/slo"
)

// maxSolveBody bounds the accepted model-document size; anything larger
// is a hostile or mistaken upload, not a reliability model.
const maxSolveBody = 8 << 20

// serveConfig wires a solve service together; split from the flag
// parsing so tests can build handlers directly.
type serveConfig struct {
	// Registry receives request and solver metrics and backs /metrics.
	Registry *metrics.Registry
	// Logger receives structured request and solve events (nil disables).
	Logger *slog.Logger
	// MaxInflight bounds concurrent solves; excess requests wait in the
	// admission queue, and past that are shed.
	MaxInflight int
	// QueueDepth bounds requests waiting for a solve slot; beyond it the
	// server sheds load with 429 (0 means 2x MaxInflight).
	QueueDepth int
	// QueueWait bounds how long a queued request waits for a slot before
	// giving up with 503 (0 means 1s).
	QueueWait time.Duration
	// BreakerThreshold is the consecutive 5xx-class solve failures per
	// model class before its circuit breaker opens (0 means 5; negative
	// disables the breakers).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker stays open before a
	// half-open probe is allowed (0 means 15s).
	BreakerCooldown time.Duration
	// MaxBody bounds the accepted model-document size in bytes (0 means
	// the 8 MiB default).
	MaxBody int64
	// Failpoints is a failpoint schedule ("name:spec;name:spec") armed at
	// construction, for chaos drills against the real handler stack.
	Failpoints string
	// SolveTimeout bounds each solve (0 disables).
	SolveTimeout time.Duration
	// Rails and Preflight mirror the solve-subcommand flags.
	Rails     guard.Strictness
	Preflight bool
	// UI mounts the reldash dashboard at /ui with its /api/* routes.
	UI bool
	// TraceStoreSize bounds the retained completed-solve traces backing
	// the dashboard (0 means the 256 default).
	TraceStoreSize int
	// BenchPath locates the committed bench baseline for /api/bench.
	BenchPath string
	// JobsDir is the checkpoint directory for the async sweep job engine
	// (empty runs jobs in memory only, with no crash recovery).
	JobsDir string
	// JobWorkers bounds concurrently running sweep shards (0 means 4).
	JobWorkers int
	// SLOPath configures declarative objectives: a JSON file path (see
	// slo.ParseConfig), "" for the built-in defaults, or "off" to disable
	// the SLO engine entirely.
	SLOPath string
	// SLOObjectives, when non-nil, overrides SLOPath with objectives
	// built in code (tests, chaos driver).
	SLOObjectives []slo.Objective
	// WideWriter receives the sampled wide-event log as JSON lines (nil
	// disables; runServe points it at a file or stderr).
	WideWriter io.Writer
	// WideSample keeps 1-in-N healthy wide events (errors and non-ok
	// outcomes always log; <= 1 keeps everything).
	WideSample int
	// CorrSeed seeds the correlation-ID stream; 0 derives a seed from
	// the clock (tests pin it for deterministic IDs).
	CorrSeed uint64
	// RetryFloor is the minimum Retry-After hint in seconds for shed and
	// capacity-timeout replies — the answer when the latency histogram
	// is still empty (0 means 1).
	RetryFloor int
	// ProfileDir enables the continuous-profiling ring: periodic pprof
	// CPU/heap captures retained in a bounded on-disk ring (empty
	// disables).
	ProfileDir string
	// ProfileEvery is the capture cadence (0 means 30s when ProfileDir
	// is set).
	ProfileEvery time.Duration
	// ProfileMax bounds retained profile files (0 means 32).
	ProfileMax int
	// SelfModelEvery is the self-model sampling cadence: every tick the
	// server classifies its own state (ok / saturated / open) into the
	// availability CTMC it periodically solves about itself. 0 disables
	// the background sampler; tests step the model explicitly.
	SelfModelEvery time.Duration
}

// solveServer is the long-running HTTP solve service behind
// `relcli serve`.
type solveServer struct {
	cfg   serveConfig
	adm   *admission
	brk   *breakerSet
	store *obs.TraceStore
	win   *metrics.SlidingCounter // the dashboard's request window
	jobs  *jobs.Engine
	// jobsResumed counts the incomplete jobs Recover picked up from the
	// checkpoint directory at boot.
	jobsResumed int
	start       time.Time
	draining    atomic.Bool

	corr      *obs.CorrSource
	wide      *obs.WideLog
	slo       *slo.Engine
	selfModel *slo.SelfModel
	selfPred  atomic.Pointer[selfPrediction]
	profiles  *obs.ProfileRing

	// stopBg stops the background samplers (self-model, profiling);
	// bgWG waits them out on close.
	stopBg chan struct{}
	bgWG   sync.WaitGroup

	requests *metrics.Counter
	latency  *metrics.Histogram
	inflight *metrics.Gauge
	shed     *metrics.Counter
	degraded *metrics.Counter
	breaker  *metrics.Counter
	panics   *metrics.Counter
	fpTrips  *metrics.Counter
}

// newSolveServer builds the service (handlers, admission controller,
// breakers, metrics) without binding a socket, so tests and the chaos
// driver can exercise the exact production stack in-process. The error
// is a dashboard construction failure (broken embedded template) or a
// malformed cfg.Failpoints schedule.
func newSolveServer(cfg serveConfig) (*solveServer, *http.ServeMux, error) {
	if cfg.Registry == nil {
		cfg.Registry = metrics.Default()
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 8
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 2 * cfg.MaxInflight
	}
	if cfg.QueueWait <= 0 {
		cfg.QueueWait = time.Second
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 5
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 15 * time.Second
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = maxSolveBody
	}
	if cfg.TraceStoreSize <= 0 {
		cfg.TraceStoreSize = 256
	}
	if cfg.RetryFloor <= 0 {
		cfg.RetryFloor = 1
	}
	if cfg.CorrSeed == 0 {
		cfg.CorrSeed = uint64(time.Now().UnixNano())
	}
	if cfg.Failpoints != "" {
		if err := failpoint.ArmSchedule(cfg.Failpoints); err != nil {
			return nil, nil, err
		}
	}
	s := &solveServer{
		cfg:   cfg,
		adm:   newAdmission(cfg.MaxInflight, cfg.QueueDepth, cfg.QueueWait),
		store: obs.NewTraceStore(cfg.TraceStoreSize),
		win:   metrics.NewSlidingCounter(time.Minute, 0),
		start: time.Now(),
		requests: cfg.Registry.NewCounter("relscope_solve_requests_total",
			"Solve requests handled, by HTTP status code.", "code"),
		latency: cfg.Registry.NewHistogram("relscope_http_request_seconds",
			"Request latency by route.", nil, "route"),
		inflight: cfg.Registry.NewGauge("relscope_solve_inflight",
			"Solve requests currently executing."),
		shed: cfg.Registry.NewCounter("relserve_rejected_total",
			"Requests rejected before solving, by reason (shed, capacity-timeout, draining, breaker-open).", "reason"),
		degraded: cfg.Registry.NewCounter("relserve_degraded_total",
			"Degraded bounds-only answers served while a breaker was open, by model class.", "class"),
		breaker: cfg.Registry.NewCounter("relserve_breaker_open_total",
			"Circuit-breaker open transitions, by model class.", "class"),
		panics: cfg.Registry.NewCounter("relserve_panics_total",
			"Handler panics converted to typed 500s, by route.", "route"),
		fpTrips: cfg.Registry.NewCounter("relserve_failpoint_trips_total",
			"Armed failpoint activations, by failpoint name.", "name"),
	}
	s.brk = newBreakerSet(cfg.BreakerThreshold, cfg.BreakerCooldown,
		func(class string) { s.breaker.Inc(class) })
	failpoint.SetOnTrip(func(name string) { s.fpTrips.Inc(name) })
	s.corr = obs.NewCorrSource(cfg.CorrSeed)
	s.selfModel = slo.NewSelfModel()
	s.stopBg = make(chan struct{})
	if cfg.WideWriter != nil {
		s.wide = obs.NewWideLog(cfg.WideWriter, cfg.WideSample)
	}
	objectives := cfg.SLOObjectives
	if objectives == nil {
		switch cfg.SLOPath {
		case "off":
			// SLO engine disabled.
		case "":
			objectives = slo.DefaultObjectives()
		default:
			f, err := os.Open(cfg.SLOPath)
			if err != nil {
				return nil, nil, err
			}
			objectives, err = slo.ParseConfig(f)
			f.Close()
			if err != nil {
				return nil, nil, err
			}
		}
	}
	if len(objectives) > 0 {
		eng, err := slo.New(slo.Config{
			Objectives: objectives,
			Registry:   cfg.Registry,
			OnBreach: func(b slo.Breach) {
				if cfg.Logger != nil {
					cfg.Logger.Warn("slo breach",
						"objective", b.Objective, "window", b.Window,
						"burn_rate", b.BurnRate, "threshold", b.Threshold)
				}
			},
		})
		if err != nil {
			return nil, nil, err
		}
		s.slo = eng
	}
	if cfg.ProfileDir != "" {
		ring, err := obs.NewProfileRing(cfg.ProfileDir, cfg.ProfileMax)
		if err != nil {
			return nil, nil, err
		}
		s.profiles = ring
	}
	jobLogf := func(string, ...any) {}
	if cfg.Logger != nil {
		jobLogf = func(format string, args ...any) {
			cfg.Logger.Warn(fmt.Sprintf(format, args...))
		}
	}
	eng, err := jobs.New(jobs.Config{
		Dir:      cfg.JobsDir,
		Workers:  cfg.JobWorkers,
		Registry: cfg.Registry,
		Logf:     jobLogf,
	})
	if err != nil {
		return nil, nil, err
	}
	s.jobs = eng
	// Incomplete jobs left behind by a killed process resume here, before
	// the socket opens — the durability contract of the WAL checkpoints.
	if s.jobsResumed, err = eng.Recover(); err != nil {
		return nil, nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /solve", s.route("/solve", s.handleSolve))
	mux.HandleFunc("POST /analyze", s.route("/analyze", s.handleAnalyze))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	// SLO status and the profile listing mount unconditionally (like
	// /healthz): chaos drills and probes need them with the UI off.
	mux.HandleFunc("GET /api/slo", s.route("/api/slo", s.handleSLO))
	mux.HandleFunc("GET /api/profiles", s.route("/api/profiles", s.handleProfiles))
	mux.HandleFunc("POST /jobs", s.route("/jobs", s.handleJobSubmit))
	mux.HandleFunc("GET /jobs", s.route("/jobs", s.handleJobList))
	mux.HandleFunc("GET /jobs/{id}", s.route("/jobs/{id}", s.handleJobGet))
	mux.HandleFunc("DELETE /jobs/{id}", s.route("/jobs/{id}", s.handleJobCancel))
	obs.RegisterDebug(mux, cfg.Registry)
	if cfg.UI {
		dash, err := reldash.NewHandler(reldash.Config{
			Store:      s.store,
			Registry:   cfg.Registry,
			BenchPath:  cfg.BenchPath,
			Window:     s.win,
			InFlight:   func() int { return int(s.inflight.Value()) },
			Start:      s.start,
			Resilience: s.resilience,
			Jobs:       s.jobRows,
			SLO:        s.sloView,
			Profiles:   s.profileRows,
		})
		if err != nil {
			return nil, nil, err
		}
		dash.Register(mux)
	}
	s.startBackground()
	return s, mux, nil
}

// newServeMux is the route-only constructor most handler tests use.
func newServeMux(cfg serveConfig) (*http.ServeMux, error) {
	_, mux, err := newSolveServer(cfg)
	return mux, err
}

// handler is the shape of every route serve wraps. It may set response
// headers (Retry-After, Location) and fill in the request record, and it
// returns the status and the reply document; it never writes a body or
// feeds a sink — route does both, exactly once per request.
type handler func(w http.ResponseWriter, r *http.Request, ev *obs.WideEvent) (status int, body any)

// route wraps a handler in the per-request boundary. It stamps the
// correlation ID (a sanitized inbound X-Rel-Correlation-Id, or a freshly
// minted one) and runs the handler under guard.Isolate: a panic escaping
// it (or injected through a failpoint) becomes a typed 500 and the
// server keeps serving, where net/http alone would kill the connection
// with an empty reply. It then writes the one JSON reply and fans the
// finished request record out to every sink — the /solve request
// counter, the latency histogram, the dashboard window, the SLO engine,
// the wide-event log, and one slog line.
func (s *solveServer) route(path string, h handler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		corr := obs.SanitizeCorr(r.Header.Get(obs.CorrHeader))
		if corr == "" {
			corr = s.corr.Next()
		}
		w.Header().Set(obs.CorrHeader, corr)
		ev := &obs.WideEvent{Time: time.Now(), Corr: corr, Route: path}
		var status int
		var body any
		if err := guard.Isolate("serve"+path, func() error {
			status, body = h(w, r, ev)
			return nil
		}); err != nil {
			s.panics.Inc(path)
			if s.cfg.Logger != nil {
				s.cfg.Logger.Error("handler panic isolated", "route", path, "corr", corr, "err", err)
			}
			status, body = http.StatusInternalServerError, solveResponse{Error: err.Error(), Code: "internal"}
		}
		switch b := body.(type) {
		case solveResponse:
			ev.Code = b.Code
		case jobResponse:
			ev.Code = b.Code
		}
		reldash.WriteJSON(w, status, body)

		wall := time.Since(ev.Time)
		ev.Status = status
		ev.WallMS = float64(wall.Nanoseconds()) / 1e6
		if path == "/solve" {
			s.requests.Inc(strconv.Itoa(status))
		}
		s.latency.Observe(wall.Seconds(), path)
		s.win.Record(status >= http.StatusBadRequest)
		if s.slo != nil {
			s.slo.Observe(path, status, wall)
		}
		s.wide.Log(*ev)
		if s.cfg.Logger != nil {
			level := slog.LevelInfo
			switch {
			case status >= http.StatusInternalServerError:
				level = slog.LevelError
			case ev.Degraded:
				level = slog.LevelWarn
			}
			s.cfg.Logger.LogAttrs(r.Context(), level, "request",
				slog.Time("ts", ev.Time), slog.String("corr", corr), slog.String("route", path),
				slog.Int("status", status), slog.String("code", ev.Code),
				slog.String("model", ev.Model), slog.String("model_hash", ev.ModelHash),
				slog.String("solver", ev.Solver), slog.String("outcome", ev.Outcome),
				slog.Bool("degraded", ev.Degraded), slog.String("queue", ev.Queue),
				slog.String("breaker", ev.Breaker), slog.String("trace", ev.Trace),
				slog.Float64("wall_ms", ev.WallMS))
		}
	}
}

// readBody reads the request body up to MaxBody. A failed read returns
// the reply's error text and code instead: too-large past the limit
// (doc names the document in the message), body-read otherwise.
func (s *solveServer) readBody(w http.ResponseWriter, r *http.Request, doc string) (body []byte, msg, code string) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	switch {
	case err == nil:
		return body, "", ""
	case maxBytesError(err):
		return nil, fmt.Sprintf("%s document exceeds the %d-byte limit", doc, s.cfg.MaxBody), "too-large"
	default:
		return nil, err.Error(), "body-read"
	}
}

// storePut retains a request's trace record and returns its ID. A
// panicking trace store (failpoint) loses the record, never the reply:
// the record is an observability nicety.
func (s *solveServer) storePut(route string, rec obs.TraceRecord) (id string) {
	if err := guard.Isolate("serve.store", func() error { id = s.store.Put(rec); return nil }); err != nil {
		s.panics.Inc(route + "/store")
	}
	return id
}

// resilience snapshots the serve-layer protection state for the
// dashboard and /healthz.
func (s *solveServer) resilience() reldash.Resilience {
	return reldash.Resilience{
		Draining: s.draining.Load(),
		QueueLen: s.adm.queueLen(),
		QueueCap: s.adm.queueCap(),
		Breakers: s.brk.snapshot(),
		Shed:     s.shed.Total(),
		Degraded: s.degraded.Total(),
	}
}

// healthzResponse is the GET /healthz reply: not just liveness but the
// operational context a probe (or a human with curl) wants first.
type healthzResponse struct {
	Status   string            `json:"status"`
	UptimeS  float64           `json:"uptime_s"`
	InFlight int               `json:"in_flight"`
	Queue    healthzOccupancy  `json:"queue"`
	Breakers map[string]string `json:"breakers,omitempty"`
	Store    healthzOccupancy  `json:"trace_store"`
	Jobs     healthzJobs       `json:"jobs"`
	// SLO summarizes the objective engine so load balancers can act on
	// budget exhaustion without scraping /api/slo; omitted when the
	// engine is disabled (keeping the pre-SLO JSON shape).
	SLO *healthzSLO `json:"slo,omitempty"`
}

// healthzSLO is the probe-sized SLO summary: the worst burn rate and the
// smallest remaining error budget across all objectives.
type healthzSLO struct {
	WorstBurn       float64 `json:"worst_burn"`
	BudgetRemaining float64 `json:"budget_remaining"`
	Breaching       bool    `json:"breaching"`
}

// healthzJobs summarizes the async job engine for the probe reply.
type healthzJobs struct {
	Active  int `json:"active"`
	Known   int `json:"known"`
	Resumed int `json:"resumed"`
}

type healthzOccupancy struct {
	Len int `json:"len"`
	Cap int `json:"cap"`
}

// handleHealthz answers 200 "ok" in steady state and 503 "draining"
// once graceful shutdown has begun, so load balancers stop routing new
// work while in-flight solves finish.
func (s *solveServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, resp := http.StatusOK, healthzResponse{
		Status:   "ok",
		UptimeS:  time.Since(s.start).Seconds(),
		InFlight: int(s.inflight.Value()),
		Queue:    healthzOccupancy{Len: s.adm.queueLen(), Cap: s.adm.queueCap()},
		Breakers: s.brk.snapshot(),
		Store:    healthzOccupancy{Len: s.store.Len(), Cap: s.store.Cap()},
		Jobs:     s.jobsHealth(),
		SLO:      s.sloHealth(),
	}
	if s.draining.Load() {
		status, resp.Status = http.StatusServiceUnavailable, "draining"
	}
	reldash.WriteJSON(w, status, resp)
}

// sloHealth condenses the objective statuses for /healthz; nil when the
// SLO engine is off.
func (s *solveServer) sloHealth() *healthzSLO {
	if s.slo == nil {
		return nil
	}
	out := &healthzSLO{BudgetRemaining: 1}
	for _, o := range s.slo.Status() {
		if o.WorstBurn > out.WorstBurn {
			out.WorstBurn = o.WorstBurn
		}
		if o.BudgetRemaining < out.BudgetRemaining {
			out.BudgetRemaining = o.BudgetRemaining
		}
		if o.Breaching {
			out.Breaching = true
		}
	}
	return out
}

// solveResponse is the POST /solve reply document. Error carries the
// human-readable failure; Code is the stable machine-readable taxonomy
// (shed, capacity-timeout, draining, breaker-open, too-large, bad-spec,
// deadline, canceled, injected, internal) clients and the chaos driver
// key on. ModelHash fingerprints the posted document so an error can be
// correlated without echoing the body. Degraded marks bounds-only
// answers served while the model class's breaker was open — Results
// then carry Bound intervals instead of exact values. It is also the
// error-only {"error","code"} reply of /analyze and of panicking routes.
type solveResponse struct {
	Model     string           `json:"model,omitempty"`
	ModelHash string           `json:"model_hash,omitempty"`
	Degraded  bool             `json:"degraded,omitempty"`
	Results   []modelio.Result `json:"results,omitempty"`
	Trace     *obs.Span        `json:"trace,omitempty"`
	Error     string           `json:"error,omitempty"`
	Code      string           `json:"code,omitempty"`
}

// retryAfter derives the Retry-After seconds from the observed p95
// solve wall and the current queue depth, bottoming out at the
// configured floor while the histogram is still cold.
func (s *solveServer) retryAfter() int {
	return retryAfterSecs(s.latency.Quantile(0.95, "/solve"), s.adm.queueLen(), s.cfg.RetryFloor)
}

// handleSolve runs one model document through the instrumented solve
// pipeline behind the admission controller and the per-class circuit
// breaker. The request context is threaded into the solver via the
// guard plumbing, so a disconnecting client (or server shutdown closing
// the connection) cancels the solve at iteration granularity.
func (s *solveServer) handleSolve(w http.ResponseWriter, r *http.Request, ev *obs.WideEvent) (int, any) {
	if s.draining.Load() {
		s.shed.Inc("draining")
		w.Header().Set("Retry-After", "1")
		return http.StatusServiceUnavailable, solveResponse{Error: "server is draining for shutdown", Code: "draining"}
	}

	// The body is read (bounded) before admission so every rejection can
	// carry the model hash; reading is microseconds against a solve.
	body, msg, code := s.readBody(w, r, "model")
	if code != "" {
		return http.StatusBadRequest, solveResponse{Error: msg, Code: code}
	}
	hash := modelHash(body)
	ev.ModelHash = hash

	release, verdict := s.adm.acquire(r.Context())
	switch verdict {
	case admitOK:
		ev.Queue = "ok"
		s.inflight.Add(1)
		defer func() {
			s.inflight.Add(-1)
			release()
		}()
	case admitShed:
		ev.Queue = "shed"
		s.shed.Inc("shed")
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
		return http.StatusTooManyRequests, solveResponse{ModelHash: hash, Code: "shed",
			Error: "admission queue full; load shed"}
	case admitTimeout:
		ev.Queue = "timeout"
		s.shed.Inc("capacity-timeout")
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
		return http.StatusServiceUnavailable, solveResponse{ModelHash: hash, Code: "capacity-timeout",
			Error: fmt.Sprintf("no solve slot freed within %s", s.cfg.QueueWait)}
	default: // admitCanceled: the client is gone; close out cheaply.
		ev.Queue = "canceled"
		return http.StatusServiceUnavailable, solveResponse{ModelHash: hash, Code: "canceled",
			Error: "client canceled while queued"}
	}

	spec, err := modelio.Parse(bytes.NewReader(body))
	if err != nil {
		if errorCode(err) == "injected" {
			// The parser itself broke (failpoint), not the document.
			return http.StatusInternalServerError, solveResponse{ModelHash: hash, Error: err.Error(), Code: "injected"}
		}
		return http.StatusBadRequest, solveResponse{ModelHash: hash, Error: err.Error(), Code: "bad-spec"}
	}
	ev.Model = spec.Name

	// Circuit breaker: when the exact path for this model class has been
	// failing consecutively, short-circuit to a degraded bounds-only
	// answer rather than burning a solve slot on a likely failure.
	proceed, probe := s.brk.allow(spec.Type)
	switch {
	case !proceed:
		ev.Breaker = "open"
		return s.solveDegraded(w, ev, spec)
	case probe:
		ev.Breaker = "probe"
	default:
		ev.Breaker = "closed"
	}

	// Every solve is traced so the store retains its span tree for the
	// dashboard; the response only carries the tree when asked (?trace=1).
	tr := obs.NewTrace(rootName(spec))
	tr.Set(obs.S("corr", ev.Corr))
	recs := []obs.Recorder{obs.NewMetricsRecorder(s.cfg.Registry, spec.Name), tr}
	if s.cfg.Logger != nil {
		recs = append(recs, obs.NewSlogRecorder(s.cfg.Logger))
	}
	var results []modelio.Result
	solveErr := guard.Isolate("serve.solve", func() error {
		var err error
		results, err = modelio.SolveWithOptions(spec, modelio.SolveOptions{
			Preflight: s.cfg.Preflight,
			Recorder:  obs.Multi(recs...),
			Context:   r.Context(),
			Timeout:   s.cfg.SolveTimeout,
			Rails:     s.cfg.Rails,
		})
		return err
	})
	resp := solveResponse{Model: spec.Name, ModelHash: hash, Results: results}
	if r.URL.Query().Get("trace") != "" {
		resp.Trace = tr.Finish()
	}
	status := http.StatusOK
	if solveErr != nil {
		status = solveErrorStatus(solveErr)
		resp.Error = solveErr.Error()
		resp.Code = errorCode(solveErr)
	}
	// 5xx-class outcomes are solver breakage and feed the breaker; 4xx
	// (bad documents, client cancellations) do not.
	s.brk.record(spec.Type, probe, status >= http.StatusInternalServerError)
	rec := obs.RecordFromTrace(tr, rootName(spec), "solve")
	rec.Start = ev.Time
	rec.Corr = ev.Corr
	rec.Outcome = solveOutcome(solveErr)
	if solveErr != nil {
		rec.Error = solveErr.Error()
	}
	ev.Solver = rec.Solver
	ev.Outcome = rec.Outcome
	ev.Trace = s.storePut("/solve", rec)
	return status, resp
}

// solveDegraded answers a breaker-open request: a bounds-only degraded
// solve when the model family has one (rbd, faulttree), 503 with the
// cooldown-derived Retry-After when it does not (ctmc and friends have
// no cheap certified bounds).
func (s *solveServer) solveDegraded(w http.ResponseWriter, ev *obs.WideEvent, spec *modelio.Spec) (int, any) {
	results, err := modelio.SolveBounds(spec)
	if err != nil {
		s.shed.Inc("breaker-open")
		w.Header().Set("Retry-After", strconv.Itoa(s.brk.retrySecs(spec.Type)))
		return http.StatusServiceUnavailable, solveResponse{Model: spec.Name, ModelHash: ev.ModelHash, Code: "breaker-open",
			Error: fmt.Sprintf("circuit breaker open for model class %q and no bounds-only path: %v", spec.Type, err)}
	}
	s.degraded.Inc(spec.Type)
	ev.Outcome = "degraded"
	ev.Degraded = true
	return http.StatusOK, solveResponse{Model: spec.Name, ModelHash: ev.ModelHash, Degraded: true, Results: results}
}

// handleAnalyze runs the static structural analysis (no solving) over one
// model document: the serve-side preflight. The response mirrors the
// `relcli analyze -json` per-file report. Documents with error-severity
// findings come back 422 so callers can gate a later /solve on it.
func (s *solveServer) handleAnalyze(w http.ResponseWriter, r *http.Request, ev *obs.WideEvent) (int, any) {
	body, msg, code := s.readBody(w, r, "model")
	if code != "" {
		return http.StatusBadRequest, solveResponse{Error: msg, Code: code}
	}
	rep, spec := analyzeDocument("<request>", bytes.NewReader(body))
	status := http.StatusOK
	ev.Outcome = "ok"
	if lint.HasErrors(rep.Diagnostics) {
		status, ev.Outcome = http.StatusUnprocessableEntity, "error"
	}
	// An undecodable or unnamed document is still retained, labeled as such.
	ev.Model = "<unparsed>"
	if spec != nil && spec.Name != "" {
		ev.Model = spec.Name
	}
	ev.Trace = s.storePut("/analyze", obs.TraceRecord{
		Corr:     ev.Corr,
		Model:    ev.Model,
		Endpoint: "analyze",
		Outcome:  ev.Outcome,
		Start:    ev.Time,
		WallMS:   float64(time.Since(ev.Time).Nanoseconds()) / 1e6,
	})
	return status, rep
}

// solveOutcome classifies how a solve ended for trace-store filtering.
func solveOutcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, guard.ErrDeadline):
		return "deadline"
	case errors.Is(err, guard.ErrCanceled):
		return "canceled"
	default:
		return "error"
	}
}

// solveErrorStatus maps the typed solve-failure taxonomy onto HTTP.
func solveErrorStatus(err error) int {
	var lerr *lint.Error
	switch {
	case errors.Is(err, guard.ErrDeadline):
		return http.StatusGatewayTimeout
	case errors.Is(err, guard.ErrCanceled):
		return http.StatusServiceUnavailable
	case errors.As(err, &lerr), errors.Is(err, modelio.ErrBadSpec):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

// rootName labels a request-scoped trace.
func rootName(spec *modelio.Spec) string {
	if spec.Name != "" {
		return spec.Name
	}
	return "solve"
}

// newSlogLogger builds the -log handler: format "text" or "json", level
// "debug" (includes per-iteration convergence events), "info", "warn",
// or "error".
func newSlogLogger(format, level string, w io.Writer) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "", "info":
		lv = slog.LevelInfo
	case "debug":
		lv = slog.LevelDebug
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("relcli: unknown log level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("relcli: unknown log format %q (want text or json)", format)
}

// runServe implements the serve subcommand: bind, announce, serve until
// SIGINT/SIGTERM, then drain gracefully — in-flight solves get the grace
// period, after which closing the connections cancels them through the
// guard context plumbing.
func runServe(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("relcli serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (\":0\" picks a free port)")
	logFormat := fs.String("log", "", "structured request/solve logs on stderr: text or json")
	logLevel := fs.String("log-level", "info", "log level for -log (debug adds per-iteration events)")
	maxInflight := fs.Int("max-inflight", 8, "maximum concurrent solves; excess requests queue, then shed")
	queueDepth := fs.Int("queue-depth", 0, "admission-queue depth before load shedding with 429 (0 means 2x max-inflight)")
	queueWait := fs.Duration("queue-wait", time.Second, "longest a queued request waits for a solve slot before 503")
	breakerThreshold := fs.Int("breaker-threshold", 5, "consecutive solver failures per model class before its breaker opens (negative disables)")
	breakerCooldown := fs.Duration("breaker-cooldown", 15*time.Second, "how long an open breaker waits before a half-open probe")
	failpoints := fs.String("failpoints", "", "failpoint schedule to arm (name:spec;name:spec), for chaos drills; RELFAIL adds more")
	maxBody := fs.Int64("max-body", 0, "largest accepted model document in bytes (0 means 8 MiB)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-solve deadline (0 disables)")
	rails := fs.String("rails", "", "numerical guard-rail strictness: strict, warn (default), or off")
	preflight := fs.Bool("preflight", false, "lint each model and refuse to solve on errors")
	grace := fs.Duration("grace", 5*time.Second, "shutdown drain period before in-flight solves are canceled")
	ui := fs.Bool("ui", true, "mount the reldash dashboard at /ui (and its /api/* routes)")
	traceStoreSize := fs.Int("trace-store-size", 256, "completed solve traces retained for the dashboard")
	benchPath := fs.String("bench", "BENCH_solvers.json", "bench baseline JSON backing /api/bench")
	jobsDir := fs.String("jobs-dir", "", "checkpoint directory for async sweep jobs; killed processes resume incomplete jobs from it (empty disables durability)")
	jobWorkers := fs.Int("job-workers", 4, "concurrently running sweep shards across all jobs")
	sloPath := fs.String("slo", "", "SLO objectives JSON file (empty uses built-in defaults; \"off\" disables the SLO engine)")
	wideEvents := fs.String("wide-events", "", "wide-event log destination: a file path, or \"-\" for stderr (empty disables)")
	wideSample := fs.Int("wide-sample", 10, "keep 1-in-N healthy wide events (errors always log; 1 keeps all)")
	profileDir := fs.String("profile-dir", "", "continuous-profiling ring directory for periodic pprof CPU/heap captures (empty disables)")
	profileEvery := fs.Duration("profile-every", 30*time.Second, "continuous-profiling capture cadence")
	profileMax := fs.Int("profile-max", 32, "profile files retained in the ring before the oldest is deleted")
	retryFloor := fs.Int("retry-floor", 1, "minimum Retry-After seconds hinted on shed/capacity responses")
	selfModelEvery := fs.Duration("selfmodel-every", 2*time.Second, "self-model sampling cadence: how often serve classifies its own state into the availability CTMC it solves about itself (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var wideW io.Writer
	switch *wideEvents {
	case "":
	case "-":
		wideW = stderr
	default:
		f, err := os.OpenFile(*wideEvents, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		wideW = f
	}
	if _, err := guard.ParseStrictness(*rails); err != nil {
		return err
	}
	var logger *slog.Logger
	if *logFormat != "" {
		var err error
		if logger, err = newSlogLogger(*logFormat, *logLevel, stderr); err != nil {
			return err
		}
	}
	if n, err := failpoint.ArmFromEnv(os.Getenv); err != nil {
		return err
	} else if n > 0 {
		fmt.Fprintf(stdout, "relcli: armed %d failpoint(s) from %s\n", n, failpoint.EnvVar)
	}
	s, mux, err := newSolveServer(serveConfig{
		Registry:         metrics.Default(),
		Logger:           logger,
		MaxInflight:      *maxInflight,
		QueueDepth:       *queueDepth,
		QueueWait:        *queueWait,
		MaxBody:          *maxBody,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		Failpoints:       *failpoints,
		SolveTimeout:     *timeout,
		Rails:            guard.Strictness(*rails),
		Preflight:        *preflight,
		UI:               *ui,
		TraceStoreSize:   *traceStoreSize,
		BenchPath:        *benchPath,
		JobsDir:          *jobsDir,
		JobWorkers:       *jobWorkers,
		SLOPath:          *sloPath,
		WideWriter:       wideW,
		WideSample:       *wideSample,
		ProfileDir:       *profileDir,
		ProfileEvery:     *profileEvery,
		ProfileMax:       *profileMax,
		RetryFloor:       *retryFloor,
		SelfModelEvery:   *selfModelEvery,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Fprintf(stdout, "relcli: serving on http://%s (POST /solve, POST /jobs, /ui, /metrics, /healthz, /debug/pprof/)\n",
		ln.Addr())
	if s.jobsResumed > 0 {
		fmt.Fprintf(stdout, "relcli: resumed %d incomplete sweep job(s) from %s\n", s.jobsResumed, *jobsDir)
	}
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Flip to draining first: /healthz answers 503 "draining" and new
	// solves and job submissions are refused while in-flight work gets
	// the grace period.
	s.draining.Store(true)
	s.stopBackground()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	// The job engine drains concurrently with the HTTP listener: queued
	// shards stay queued (their WAL checkpoints carry them to the next
	// process), in-flight shards finish and checkpoint, and past the
	// grace period the remaining shards are hard-canceled — still safe,
	// an uncheckpointed shard is simply recomputed on resume.
	jobsDone := make(chan error, 1)
	go func() { jobsDone <- s.jobs.Close(shutdownCtx) }()
	err = srv.Shutdown(shutdownCtx)
	if jerr := <-jobsDone; jerr != nil {
		fmt.Fprintf(stdout, "relcli: job drain cut short, unfinished shards recompute on resume: %v\n", jerr)
	}
	if err != nil {
		// Grace expired with solves still running: close the connections,
		// which cancels their request contexts and interrupts the solvers.
		return srv.Close()
	}
	return nil
}
