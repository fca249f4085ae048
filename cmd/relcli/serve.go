package main

import (
	"bytes"
	"context"
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

// Serve's constants, each value written once. Apart from
// defaultMaxInflight no caller tunes them. The other serveConfig
// defaults live in newSolveServer.
const (
	// maxSolveBody bounds the accepted model-document size; anything
	// larger is a hostile or mistaken upload, not a reliability model.
	maxSolveBody = 8 << 20
	// defaultMaxInflight is the concurrent-solve bound: the -max-inflight
	// default, and what a zero cfg.MaxInflight means.
	defaultMaxInflight = 8
	// traceStoreSize bounds the completed request traces retained for
	// the dashboard, oldest evicted first.
	traceStoreSize = 256
	// wideSample keeps 1 in wideSample healthy wide events; failed
	// requests and non-ok outcomes always log.
	wideSample = 10
	// profileEvery is the continuous-profiling cadence: each tick takes a
	// heap snapshot and a CPU profile a quarter of the cadence long.
	profileEvery = 30 * time.Second
	// selfModelEvery is the self-model sampling cadence runServe uses.
	selfModelEvery = 2 * time.Second
)

// serveConfig wires a solve service together; split from the flag
// parsing so tests can build handlers directly.
type serveConfig struct {
	// Registry receives request and solver metrics and backs /metrics.
	Registry *metrics.Registry
	// Logger receives structured request and solve events (nil disables).
	Logger *slog.Logger
	// MaxInflight bounds concurrent solves; excess requests wait in the
	// admission queue, and past that are shed (0 means
	// defaultMaxInflight).
	MaxInflight int
	// QueueDepth bounds requests waiting for a solve slot; beyond it the
	// server sheds load with 429 (0 means 2x MaxInflight).
	QueueDepth int
	// QueueWait bounds how long a queued request waits for a slot before
	// giving up with 503 (0 means 1s).
	QueueWait time.Duration
	// BreakerThreshold is the consecutive 5xx-class solve failures per
	// model class before its circuit breaker opens (0 means 5).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker stays open before a
	// half-open probe is allowed (0 means 15s).
	BreakerCooldown time.Duration
	// MaxBody bounds the accepted model-document size in bytes (0 means
	// maxSolveBody).
	MaxBody int64
	// Failpoints is a failpoint schedule ("name:spec;name:spec") armed at
	// construction, for chaos drills against the real handler stack.
	Failpoints string
	// SolveTimeout bounds each solve (0 disables).
	SolveTimeout time.Duration
	// BenchPath locates the committed bench baseline for /api/bench.
	BenchPath string
	// JobsDir is the checkpoint directory for the async sweep job engine
	// (empty runs jobs in memory only, with no crash recovery).
	JobsDir string
	// JobWorkers bounds concurrently running sweep shards (0 means
	// jobs.DefaultWorkers).
	JobWorkers int
	// SLOPath names a declarative objectives JSON file (see
	// slo.ParseConfig); "" means the built-in defaults.
	SLOPath string
	// SLOObjectives, when non-nil, overrides SLOPath with objectives
	// built in code (tests, chaos driver).
	SLOObjectives []slo.Objective
	// WideWriter receives the sampled wide-event log as JSON lines (nil
	// disables; runServe points it at a file or stderr).
	WideWriter io.Writer
	// CorrSeed seeds the correlation-ID stream; 0 derives a seed from
	// the clock (tests pin it for deterministic IDs).
	CorrSeed uint64
	// ProfileDir enables the continuous-profiling ring: pprof CPU/heap
	// captures every profileEvery, retained in a bounded on-disk ring
	// (empty disables).
	ProfileDir string
	// SelfModelEvery is the self-model sampling cadence: every tick the
	// server classifies its own state (ok / saturated / open) into the
	// availability CTMC it periodically solves about itself. 0 disables
	// the background sampler; tests step the model explicitly, and
	// runServe passes selfModelEvery.
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

	// solveMetrics folds each finished solve trace into the relscope
	// solver families, registered once per server.
	solveMetrics *obs.SolveMetrics

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
		cfg.MaxInflight = defaultMaxInflight
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 2 * cfg.MaxInflight
	}
	if cfg.QueueWait <= 0 {
		cfg.QueueWait = time.Second
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 5
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 15 * time.Second
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = maxSolveBody
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
		store: obs.NewTraceStore(traceStoreSize),
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
	s.solveMetrics = obs.NewSolveMetrics(cfg.Registry)
	s.selfModel = slo.NewSelfModel()
	s.stopBg = make(chan struct{})
	if cfg.WideWriter != nil {
		s.wide = obs.NewWideLog(cfg.WideWriter, wideSample)
	}
	objectives := cfg.SLOObjectives
	switch {
	case objectives != nil: // built in code
	case cfg.SLOPath == "":
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
	var err error
	s.slo, err = slo.New(slo.Config{
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
	if cfg.ProfileDir != "" {
		if s.profiles, err = obs.NewProfileRing(cfg.ProfileDir, obs.DefaultProfileMax); err != nil {
			return nil, nil, err
		}
	}
	jobLogf := func(string, ...any) {}
	if cfg.Logger != nil {
		jobLogf = func(format string, args ...any) {
			cfg.Logger.Warn(fmt.Sprintf(format, args...))
		}
	}
	s.jobs, err = jobs.New(jobs.Config{
		Dir:      cfg.JobsDir,
		Workers:  cfg.JobWorkers,
		Registry: cfg.Registry,
		Logf:     jobLogf,
	})
	if err != nil {
		return nil, nil, err
	}
	// Incomplete jobs left behind by a killed process resume here, before
	// the socket opens — the durability contract of the WAL checkpoints.
	if s.jobsResumed, err = s.jobs.Recover(); err != nil {
		return nil, nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /solve", s.route("/solve", s.handleSolve))
	mux.HandleFunc("POST /analyze", s.route("/analyze", s.handleAnalyze))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /api/slo", s.route("/api/slo", s.handleSLO))
	mux.HandleFunc("GET /api/profiles", s.route("/api/profiles", s.handleProfiles))
	mux.HandleFunc("POST /jobs", s.route("/jobs", s.handleJobSubmit))
	mux.HandleFunc("GET /jobs", s.route("/jobs", s.handleJobList))
	mux.HandleFunc("GET /jobs/{id}", s.route("/jobs/{id}", s.handleJobGet))
	mux.HandleFunc("DELETE /jobs/{id}", s.route("/jobs/{id}", s.handleJobCancel))
	obs.RegisterDebug(mux, cfg.Registry)
	dash, err := reldash.NewHandler(reldash.Config{
		Store:      s.store,
		Registry:   cfg.Registry,
		BenchPath:  cfg.BenchPath,
		Window:     s.win,
		InFlight:   func() int { return int(s.inflight.Value()) },
		Start:      s.start,
		Resilience: s.resilience,
		Jobs:       s.jobs.List,
		SLO:        s.sloReport,
		Profiles:   s.profiles.Overlapping,
	})
	if err != nil {
		return nil, nil, err
	}
	dash.Register(mux)
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
			o := outcomeOf(err)
			status, body = o.status, solveResponse{Error: err.Error(), Code: o.code}
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
		s.slo.Observe(path, status, wall)
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
// (doc names the document in the message), body-read otherwise. The body
// is read by readDeclared up to its declared Content-Length, so its
// buffer ends at the body's size; a chunked one (no declared length)
// grows the same way up to the limit.
func (s *solveServer) readBody(w http.ResponseWriter, r *http.Request, doc string) (body []byte, msg, code string) {
	// One byte past MaxBody is what MaxBytesReader needs to see.
	size := s.cfg.MaxBody + 1
	if r.ContentLength >= 0 {
		size = min(r.ContentLength, size)
	}
	body, err := readDeclared(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody), size)
	switch {
	case err == nil:
		return body, "", ""
	case maxBytesError(err):
		return nil, fmt.Sprintf("%s document exceeds the %d-byte limit", doc, s.cfg.MaxBody), "too-large"
	default:
		return nil, err.Error(), "body-read"
	}
}

// readDeclared reads r to EOF into a buffer that grows only as bytes
// arrive: each time it fills, to at most twice what it holds and never
// past size, the length the request declared. A client therefore pins
// no more than twice what it has sent, and reading a body of the
// declared size ends with one buffer of exactly that size: a body of n
// bytes allocates at most about 3n, where bytes.Buffer's doubling
// allocates up to about 4n and overshoots n. Bytes past size (a length
// the transport did not enforce) grow the buffer as append does.
func readDeclared(r io.Reader, size int64) ([]byte, error) {
	const first = 512
	buf := make([]byte, 0, min(size, first))
	for {
		if len(buf) == cap(buf) {
			if int64(len(buf)) < size {
				grown := make([]byte, len(buf), min(2*int64(len(buf)), size))
				copy(grown, buf)
				buf = grown
			} else {
				// At the declared size: one more read should see EOF.
				var probe [1]byte
				n, err := r.Read(probe[:])
				buf = append(buf, probe[:n]...)
				if err == io.EOF {
					return buf, nil
				}
				if err != nil {
					return buf, err
				}
				continue
			}
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
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
	Queue    reldash.Occupancy `json:"queue"`
	Breakers map[string]string `json:"breakers,omitempty"`
	Store    reldash.Occupancy `json:"trace_store"`
	Jobs     healthzJobs       `json:"jobs"`
	// SLO summarizes the objective engine so load balancers can act on
	// budget exhaustion without scraping /api/slo.
	SLO healthzSLO `json:"slo"`
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

// handleHealthz answers 200 "ok" in steady state and 503 "draining"
// once graceful shutdown has begun, so load balancers stop routing new
// work while in-flight solves finish.
func (s *solveServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, resp := http.StatusOK, healthzResponse{
		Status:   "ok",
		UptimeS:  time.Since(s.start).Seconds(),
		InFlight: int(s.inflight.Value()),
		Queue:    reldash.Occupancy{Len: s.adm.queueLen(), Cap: s.adm.queueCap()},
		Breakers: s.brk.snapshot(),
		Store:    reldash.Occupancy{Len: s.store.Len(), Cap: s.store.Cap()},
		Jobs:     s.jobsHealth(),
		SLO:      s.sloHealth(),
	}
	if s.draining.Load() {
		status, resp.Status = http.StatusServiceUnavailable, "draining"
	}
	reldash.WriteJSON(w, status, resp)
}

// sloHealth condenses the objective statuses for /healthz.
func (s *solveServer) sloHealth() healthzSLO {
	out := healthzSLO{BudgetRemaining: 1}
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
// solve wall and the current queue depth (1 while the histogram is
// still cold).
func (s *solveServer) retryAfter() int {
	return retryAfterSecs(s.latency.Quantile(0.95, "/solve"), s.adm.queueLen())
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

	spec, err := modelio.ParseBytes(body)
	if err != nil {
		o := outcomeOf(err)
		if o.code == "bad-spec" {
			// The body does not decode as a model document: a malformed
			// request (400), where a document that decodes but cannot be
			// solved is 422. A parser that broke (failpoint) stays a 500.
			o.status = http.StatusBadRequest
		}
		return o.status, solveResponse{ModelHash: hash, Error: err.Error(), Code: o.code}
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

	// Every solve is traced, and the finished span tree is its one
	// record: the relscope solver metrics, the -log span events and the
	// trace store all read it once the solve returns. The response only
	// carries the tree when asked (?trace=1).
	tr := obs.NewTrace(rootName(spec))
	tr.Set(obs.S("corr", ev.Corr))
	var results []modelio.Result
	solveErr := guard.Isolate("serve.solve", func() error {
		var err error
		results, err = modelio.SolveWithOptions(spec, modelio.SolveOptions{
			Recorder: tr,
			Context:  r.Context(),
			Timeout:  s.cfg.SolveTimeout,
		})
		return err
	})
	root := tr.Finish()
	s.solveMetrics.Observe(spec.Name, root)
	if s.cfg.Logger != nil {
		obs.LogSpans(s.cfg.Logger, root, "corr", ev.Corr)
	}
	// One reading of how the solve ended feeds the reply, the breaker and
	// the trace record.
	o := outcomeOf(solveErr)
	resp := solveResponse{Model: spec.Name, ModelHash: hash, Results: results, Code: o.code}
	if r.URL.Query().Get("trace") != "" {
		resp.Trace = root
	}
	s.brk.record(spec.Type, probe, o.breaker)
	// The record's window is the traced solve's own, [Start, Start+WallMS]:
	// RecordFromTrace takes both from the trace, so the body read,
	// admission and parse before it do not shift the window.
	rec := obs.RecordFromTrace(tr, rootName(spec), "solve")
	rec.Corr = ev.Corr
	rec.Outcome = o.trace
	if solveErr != nil {
		resp.Error = solveErr.Error()
		rec.Error = resp.Error
	}
	ev.Solver = rec.Solver
	ev.Outcome = rec.Outcome
	ev.Trace = s.storePut("/solve", rec)
	return o.status, resp
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

// serveFlags is what the serve command line sets: the server's config
// plus the process settings runServe applies around it.
type serveFlags struct {
	cfg        serveConfig
	addr       string
	logFormat  string
	logLevel   string
	grace      time.Duration
	wideEvents string
}

// serveFlagSet declares the serve flags, bound to f. Every other serve
// setting is a constant; testdata/serve_flags.golden pins the set.
func serveFlagSet(f *serveFlags) *flag.FlagSet {
	fs := flag.NewFlagSet("relcli serve", flag.ContinueOnError)
	fs.StringVar(&f.addr, "addr", "127.0.0.1:8080", "listen address (\":0\" picks a free port)")
	fs.StringVar(&f.logFormat, "log", "", "structured request/solve logs on stderr: text or json")
	fs.StringVar(&f.logLevel, "log-level", "info", "log level for -log (debug adds per-iteration events)")
	fs.IntVar(&f.cfg.MaxInflight, "max-inflight", defaultMaxInflight, "maximum concurrent solves; excess requests queue, then shed")
	fs.IntVar(&f.cfg.JobWorkers, "job-workers", jobs.DefaultWorkers, "concurrently running sweep shards across all jobs")
	fs.DurationVar(&f.cfg.SolveTimeout, "timeout", 30*time.Second, "per-solve deadline (0 disables)")
	fs.DurationVar(&f.grace, "grace", 5*time.Second, "shutdown drain period before in-flight solves are canceled")
	fs.StringVar(&f.cfg.JobsDir, "jobs-dir", "", "checkpoint directory for async sweep jobs; killed processes resume incomplete jobs from it (empty disables durability)")
	fs.StringVar(&f.cfg.BenchPath, "bench", "BENCH_solvers.json", "bench baseline JSON backing /api/bench")
	fs.StringVar(&f.cfg.SLOPath, "slo", "", "SLO objectives JSON file (empty uses built-in defaults)")
	fs.StringVar(&f.wideEvents, "wide-events", "", fmt.Sprintf("wide-event log destination: a file path, or \"-\" for stderr (empty disables); logs every failed request and 1 in %d healthy ones", wideSample))
	fs.StringVar(&f.cfg.ProfileDir, "profile-dir", "", fmt.Sprintf("continuous-profiling ring directory for pprof CPU/heap captures every %s, newest %d kept (empty disables)", profileEvery, obs.DefaultProfileMax))
	fs.StringVar(&f.cfg.Failpoints, "failpoints", "", "failpoint schedule to arm (name:spec;name:spec), for chaos drills")
	return fs
}

// parseServeFlags parses the serve command line.
func parseServeFlags(args []string) (serveFlags, error) {
	var f serveFlags
	err := serveFlagSet(&f).Parse(args)
	return f, err
}

// runServe implements the serve subcommand: bind, announce, serve until
// SIGINT/SIGTERM, then drain gracefully — in-flight solves get the grace
// period, after which closing the connections cancels them through the
// guard context plumbing.
func runServe(args []string, stdout io.Writer) error {
	f, err := parseServeFlags(args)
	if err != nil {
		return err
	}
	cfg := f.cfg
	cfg.SelfModelEvery = selfModelEvery
	switch f.wideEvents {
	case "":
	case "-":
		cfg.WideWriter = stderr
	default:
		w, err := os.OpenFile(f.wideEvents, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer w.Close()
		cfg.WideWriter = w
	}
	if f.logFormat != "" {
		if cfg.Logger, err = newSlogLogger(f.logFormat, f.logLevel, stderr); err != nil {
			return err
		}
	}
	s, mux, err := newSolveServer(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", f.addr)
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
		fmt.Fprintf(stdout, "relcli: resumed %d incomplete sweep job(s) from %s\n", s.jobsResumed, cfg.JobsDir)
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
	shutdownCtx, cancel := context.WithTimeout(context.Background(), f.grace)
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
