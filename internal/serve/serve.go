// Package serve implements epoc-serve: a long-lived HTTP/JSON
// compilation service over the same pipeline the CLIs drive. It is
// the deployment shape the PR 1–5 groundwork was built for — every
// request runs core.CompileContext with a per-request deadline mapped
// onto core.Budgets (degrade, don't fail), a per-request trace ID
// threaded into the span tracer and response headers, and progress
// streamed live from the obs recorder — while a process-wide
// synth.Cache and pulse.Library turn repeat circuits into warm-cache
// hits across requests (the AccQOC amortization argument, applied at
// the service boundary).
//
// Endpoints (full reference with schemas and examples: SERVING.md):
//
//	POST /v1/compile             compile QASM, return the manifest envelope
//	GET  /v1/compile/{id}        job status / result envelope
//	GET  /v1/compile/{id}/events progress stream (JSON lines)
//	GET  /v1/healthz             liveness + drain state
//	GET  /v1/stats               server counters and cache sizes
//	GET  /metrics                Prometheus exposition (internal/metrics)
//	GET  /debug/pprof            (internal/debugsrv, same mux)
//
// Admission control is a bounded queue in front of a fixed worker
// pool: a full queue answers 429 with a Retry-After estimate instead
// of letting latency grow without bound. Graceful shutdown stops
// admitting (503), drains queued and in-flight compiles, and only
// then tears the listener down.
package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"epoc/internal/benchcirc"
	"epoc/internal/circuit"
	"epoc/internal/core"
	"epoc/internal/debugsrv"
	"epoc/internal/faultclock"
	"epoc/internal/hardware"
	"epoc/internal/logx"
	"epoc/internal/metrics"
	"epoc/internal/obs"
	"epoc/internal/pulse"
	"epoc/internal/report"
	"epoc/internal/store"
	"epoc/internal/synth"
	"epoc/internal/trace"
)

// Config tunes a Server. The zero value is usable: every field has a
// production default applied by New.
type Config struct {
	// Workers is the compile worker pool size: at most this many
	// compilations run concurrently (default 2). Throughput knob #1.
	Workers int
	// QueueDepth bounds the admission queue of compiles accepted but
	// not yet running (default 16). A full queue rejects with 429 +
	// Retry-After rather than queueing unboundedly. Latency knob #1.
	QueueDepth int
	// CompileWorkers is the default per-compile parallelism
	// (core.Options.Workers) when a request does not set its own
	// (default 1). Total CPU demand ≈ Workers × CompileWorkers.
	CompileWorkers int

	// DefaultDeadline applies when a request carries no deadline_ms
	// (default 2m). MaxDeadline caps every request (default 10m).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// DeadlineGrace is the slack between the soft deadline (mapped to
	// Budgets.Total: the compile degrades to fit) and the hard context
	// deadline that aborts a compile which failed to degrade in time
	// (default 5s). Only armed under the real clock; see job.run.
	DeadlineGrace time.Duration

	// RetainJobs bounds how many finished jobs stay queryable via
	// GET /v1/compile/{id} (default 128; oldest evicted first).
	RetainJobs int
	// MaxBodyBytes bounds the request body (default 1 MiB).
	MaxBodyBytes int64
	// MaxQubits rejects circuits wider than this before they reach the
	// queue (default 256).
	MaxQubits int

	// StorePath, when set, backs the process-wide caches with the
	// persistent store (internal/store) rooted at this directory: the
	// library and synthesis cache warm from disk at startup, every
	// compile's new entries are harvested and flushed, and Shutdown
	// closes the store — so a restarted daemon answers repeat circuits
	// from disk without rerunning GRAPE. Requests whose options diverge
	// from the server defaults (different grape_iters, seed, mode, …)
	// fall outside the store's namespace and simply skip it for that
	// compile. Multiple daemons may share one path: records are
	// content-addressed and flushes take an advisory flock.
	StorePath string

	// Debug mounts /debug/pprof on the server's mux.
	// (GET /metrics is always mounted, debug or not: scraping is a
	// production concern, profiling is not.)
	Debug bool

	// Log, when non-nil, enables structured JSON logging: a per-request
	// access log line (method, path, status, bytes, trace_id, and for
	// compile requests the queue-wait vs compile-time split), job
	// lifecycle records, and — threaded into core.Options.Log — the
	// pipeline's stage-boundary records. Every record of one request
	// carries the trace_id the response's Epoc-Trace-Id header carries.
	// Nil disables logging entirely.
	Log *logx.Logger

	// Clock injects the time source for deadlines, queue-wait
	// accounting and Retry-After estimates; nil means the real clock.
	// Tests inject a faultclock.Fake so every duration in the suite is
	// deterministic, per the repo's no-sleeps testing convention.
	Clock faultclock.Clock
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.CompileWorkers <= 0 {
		c.CompileWorkers = 1
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 2 * time.Minute
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 10 * time.Minute
	}
	if c.DeadlineGrace <= 0 {
		c.DeadlineGrace = 5 * time.Second
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 128
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxQubits <= 0 {
		c.MaxQubits = 256
	}
	return c
}

// Server is the compile service: shared caches, the admission queue,
// the worker pool, and the HTTP handlers. Create with New, expose
// via Handler, stop with Shutdown.
type Server struct {
	cfg Config

	mux   *http.ServeMux
	cache *synth.Cache   // process-wide synthesis cache (goroutine-safe, coalescing)
	lib   *pulse.Library // process-wide pulse library (goroutine-safe)
	store *store.Store   // persistent backing for both caches; nil without Config.StorePath
	rec   *obs.Recorder  // server-wide counters: serve/*, exported on /metrics

	queue chan *job
	log   *logx.Logger // nil-safe structured logging (Config.Log)

	inflight atomic.Int64 // jobs a worker is actively compiling

	mu       sync.Mutex // guards draining, jobs, finished, avgMS
	draining bool
	jobs     map[string]*job
	finished []string // finished job ids in completion order (eviction ring)
	avgMS    float64  // EWMA of compile wall time, for Retry-After

	workerWG   sync.WaitGroup
	inflightWG sync.WaitGroup // accepted jobs not yet finished

	started time.Time

	// compile is the pipeline entry point; tests swap it to control
	// timing without sleeps. Production is core.CompileContext.
	compile func(ctx context.Context, c *circuit.Circuit, opts core.Options) (*core.Result, error)
}

// New builds a Server and starts its worker pool. The caller owns the
// HTTP listener (http.Server{Handler: s.Handler()}); Shutdown drains
// compiles independently of the listener's lifecycle. With
// Config.StorePath set, New opens the persistent store and warms the
// process-wide caches from it before the first request; an unopenable
// store fails construction rather than silently serving cold.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		cache:   synth.NewCache(),
		lib:     pulse.NewLibrary(true),
		rec:     obs.New(),
		queue:   make(chan *job, cfg.QueueDepth),
		log:     cfg.Log,
		jobs:    map[string]*job{},
		started: time.Now(),
		compile: core.CompileContext,
	}
	if cfg.StorePath != "" {
		st, err := core.OpenStore(cfg.StorePath, s.defaultOptions())
		if err != nil {
			return nil, fmt.Errorf("serve: open store: %w", err)
		}
		s.store = st
		s.rec.Add("serve/store/warm_pulses", int64(st.WarmLibrary(s.lib)))
		s.rec.Add("serve/store/warm_synth", int64(st.WarmSynthCache(s.cache)))
	}
	s.routes()
	if cfg.Debug {
		debugsrv.Register(s.mux, s.rec)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	return s, nil
}

// defaultOptions is the core configuration of a request that sets no
// options — the configuration the store namespace is derived from.
// The probe circuit's width is irrelevant: the namespace deliberately
// excludes qubit count (pulses are per-block).
func (s *Server) defaultOptions() core.Options {
	opts, apiErr := s.buildOptions(&RequestOptions{}, circuit.New(2))
	if apiErr != nil {
		// Empty request options cannot fail validation; reaching here is
		// a bug in buildOptions itself.
		panic(fmt.Sprintf("serve: default options rejected: %v", apiErr.Message))
	}
	return opts
}

// Handler returns the server's handler: the /v1 API and /metrics
// (plus, when Config.Debug is set, the /debug endpoints), wrapped in
// the access-log middleware that stamps Epoc-Trace-Id on every
// response and — with Config.Log set — emits one structured access
// record per request.
func (s *Server) Handler() http.Handler { return s.withAccessLog(s.mux) }

// gauges reads the instantaneous admission-control state for the
// Prometheus exposition: the queue-pressure signals that counters
// alone (429s after the fact) cannot show.
func (s *Server) gauges() []metrics.Gauge {
	s.mu.Lock()
	avg := s.avgMS
	draining := s.draining
	s.mu.Unlock()
	drainingVal := 0.0
	if draining {
		drainingVal = 1
	}
	return []metrics.Gauge{
		{Name: "epoc_serve_queue_depth", Help: "Jobs waiting in the admission queue.", Value: float64(len(s.queue))},
		{Name: "epoc_serve_queue_capacity", Help: "Admission queue capacity (Config.QueueDepth).", Value: float64(s.cfg.QueueDepth)},
		{Name: "epoc_serve_inflight", Help: "Jobs a worker is actively compiling.", Value: float64(s.inflight.Load())},
		{Name: "epoc_serve_workers", Help: "Compile worker pool size.", Value: float64(s.cfg.Workers)},
		{Name: "epoc_serve_avg_compile_ms", Help: "EWMA of compile wall time in milliseconds (the Retry-After basis).", Value: avg},
		{Name: "epoc_serve_draining", Help: "1 while Shutdown drains, else 0.", Value: drainingVal},
	}
}

func (s *Server) now() time.Time {
	if s.cfg.Clock != nil {
		return s.cfg.Clock.Now()
	}
	return time.Now()
}

// newID mints a job ID: 12 hex chars of crypto/rand entropy. Job IDs
// double as default trace IDs, so they must be unguessable enough not
// to collide across a fleet.
func newID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the process is in much deeper
		// trouble than job naming; degrade to a constant-free panic.
		panic(fmt.Sprintf("serve: crypto/rand: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// admit enqueues a prepared job, answering false with a reason when
// the server is draining or the queue is full. The queue send and the
// draining check sit under one lock so Shutdown can close the queue
// without racing an in-flight send.
func (s *Server) admit(j *job) (ok bool, draining bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false, true
	}
	select {
	case s.queue <- j:
		s.jobs[j.id] = j
		s.inflightWG.Add(1)
		return true, false
	default:
		return false, false
	}
}

// retryAfter estimates seconds until a queue slot frees: the work
// ahead of a new arrival (queued + worst-case running) divided by the
// pool width, scaled by the EWMA compile time. Always ≥ 1 so clients
// never busy-loop.
func (s *Server) retryAfter() int {
	s.mu.Lock()
	avg := s.avgMS
	s.mu.Unlock()
	if avg <= 0 {
		return 1
	}
	ahead := len(s.queue) + s.cfg.Workers
	sec := int(avg*float64(ahead)/float64(s.cfg.Workers)/1000 + 0.999)
	if sec < 1 {
		sec = 1
	}
	return sec
}

// observeCompileMS folds one compile's wall time into the EWMA behind
// Retry-After (α = 0.3: reactive to load shifts, stable per-request).
func (s *Server) observeCompileMS(ms float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.avgMS <= 0 {
		s.avgMS = ms
	} else {
		s.avgMS = 0.7*s.avgMS + 0.3*ms
	}
}

// lookup returns a job by ID.
func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// finish records a job's completion for eviction accounting and
// releases its inflight slot.
func (s *Server) finish(j *job) {
	s.mu.Lock()
	s.finished = append(s.finished, j.id)
	for len(s.finished) > s.cfg.RetainJobs {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
	s.mu.Unlock()
	s.inflightWG.Done()
}

// worker drains the admission queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one admitted job end to end: skip if the client
// vanished while queued, fail if its deadline already passed, else
// compile under the derived context and record the outcome.
func (s *Server) runJob(j *job) {
	defer s.finish(j)
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	// Fold the per-job recorder — which owns the stage timers and cache
	// counters — into the server-wide recorder on every exit path, so
	// /metrics aggregates all requests.
	defer func() { s.rec.Merge(j.rec.Snapshot()) }()
	start := s.now()
	j.setQueueMS(start)
	queueMS := float64(start.Sub(j.admitted).Nanoseconds()) / 1e6
	s.rec.Observe("serve/queue_ms", queueMS)

	if j.aborted() {
		s.rec.Add("serve/canceled", 1)
		j.log.Warn("job canceled", "reason", "client_gone_queued", "queue_ms", queueMS)
		j.complete(statusCanceled, nil, nil, errClientGone)
		return
	}
	remaining := j.deadline.Sub(start)
	if remaining <= 0 {
		s.rec.Add("serve/deadline_expired_queued", 1)
		j.log.Warn("job failed", "reason", "deadline_expired_queued", "queue_ms", queueMS)
		j.complete(statusFailed, nil, nil, &apiError{
			Status: http.StatusGatewayTimeout, Code: "deadline_exceeded",
			Message: "deadline expired while the request was queued",
		})
		return
	}

	// Deadline → budget mapping (DESIGN.md §11): the soft deadline
	// becomes Budgets.Total so the pipeline degrades to fit; the hard
	// context deadline sits DeadlineGrace later as a backstop for a
	// compile that cannot reach a degrade checkpoint. The hard
	// deadline is real-time only — under an injected fake clock the
	// budget machinery (which reads the same fake) is the sole timer.
	opts := j.opts
	if opts.Budgets.Total == 0 || opts.Budgets.Total > remaining {
		opts.Budgets.Total = remaining
	}
	var (
		ctx    context.Context
		cancel context.CancelFunc
	)
	if s.cfg.Clock == nil {
		ctx, cancel = context.WithDeadline(j.baseCtx, time.Now().Add(remaining+s.cfg.DeadlineGrace))
	} else {
		ctx, cancel = context.WithCancel(j.baseCtx)
	}
	defer cancel()
	j.setCancel(cancel)

	j.events.append(obs.Event{Time: start, Stage: "serve", Msg: fmt.Sprintf(
		"compiling circuit=%s qubits=%d gates=%d strategy=%s budget=%s",
		j.circName, j.circ.NumQubits, j.circ.Len(), opts.Strategy, opts.Budgets.Total)})
	if j.log.Enabled() {
		j.log.Info("job start",
			"circuit", j.circName,
			"qubits", j.circ.NumQubits,
			"gates", j.circ.Len(),
			"strategy", string(opts.Strategy),
			"queue_ms", queueMS)
	}

	res, err := s.tracedCompile(ctx, j, opts)
	elapsed := s.now().Sub(start)
	ms := float64(elapsed.Nanoseconds()) / 1e6
	s.observeCompileMS(ms)
	s.rec.Observe("serve/compile_ms", ms)
	j.setCompileMS(ms)

	if err != nil {
		if j.aborted() || ctx.Err() != nil {
			s.rec.Add("serve/canceled", 1)
			j.log.Warn("job canceled", "queue_ms", queueMS, "compile_ms", ms, "err", err.Error())
			j.complete(statusCanceled, nil, nil, &apiError{
				Status: http.StatusGatewayTimeout, Code: "canceled",
				Message: fmt.Sprintf("compile canceled: %v", err),
			})
			return
		}
		s.rec.Add("serve/failed", 1)
		j.log.Error("job failed", "queue_ms", queueMS, "compile_ms", ms, "err", err.Error())
		j.complete(statusFailed, nil, nil, &apiError{
			Status: http.StatusInternalServerError, Code: "compile_failed",
			Message: err.Error(),
		})
		return
	}
	s.rec.Add("serve/completed", 1)
	if res.Degraded {
		s.rec.Add("serve/degraded", 1)
	}
	if j.log.Enabled() {
		j.log.Info("job done",
			"queue_ms", queueMS,
			"compile_ms", ms,
			"latency_ns", res.Latency,
			"fidelity", res.Fidelity,
			"degraded", res.Degraded,
			"degrade_reasons", strings.Join(res.DegradeReasons, ","))
	}
	m := s.buildManifest(j, res)
	j.complete(statusDone, res, m, nil)
}

// tracedCompile wraps the pipeline call in the request's root span,
// carrying the trace ID every child span inherits by ancestry.
func (s *Server) tracedCompile(ctx context.Context, j *job, opts core.Options) (*core.Result, error) {
	tsp := j.tracer.Start("serve/request").
		SetStr("trace_id", j.traceID).
		SetStr("circuit", j.circName)
	defer tsp.End()
	return s.compile(ctx, j.circ, opts)
}

// buildManifest bundles a finished compile into the PR-5 manifest
// envelope: result metrics, obs snapshot, trace summary, and a config
// fingerprint over every knob that shaped the output. The trace ID is
// deliberately not part of Config — it would make every fingerprint
// unique and defeat baseline comparison.
func (s *Server) buildManifest(j *job, res *core.Result) *report.Manifest {
	m := &report.Manifest{
		Version:        report.ManifestVersion,
		Circuit:        j.circName,
		Strategy:       string(res.Strategy),
		Config:         j.configMap(),
		Metrics:        res.MetricMap(),
		Degraded:       res.Degraded,
		DegradeReasons: res.DegradeReasons,
		Obs:            j.rec.Snapshot(),
		Trace:          j.tracer.Summary(),
	}
	m.Fingerprint()
	return m
}

// Shutdown gracefully drains the server: new work is rejected with
// 503, queued and running compiles finish, and the worker pool exits.
// If ctx expires first, the remaining compiles are canceled (they
// abort promptly at their next pipeline checkpoint) and Shutdown
// still waits for the pool to join before returning ctx's error.
// The HTTP listener is the caller's to close — drain compiles first,
// then http.Server.Shutdown, so in-flight sync responses flush.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	if !already {
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.inflightWG.Wait()
		s.workerWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return s.closeStore()
	case <-ctx.Done():
		s.mu.Lock()
		for _, j := range s.jobs {
			j.abort()
		}
		s.mu.Unlock()
		<-done
		_ = s.closeStore()
		return ctx.Err()
	}
}

// closeStore flushes and closes the persistent store. It deliberately
// does NOT harvest the process-wide caches here: they may hold entries
// computed under per-request option overrides (namespace-mismatched
// compiles share the in-memory caches but must never reach the store),
// and only the per-compile harvest knows the compile's options matched
// the namespace. The cost is losing the partial learning of compiles
// canceled mid-drain, which is the safe side of the trade.
func (s *Server) closeStore() error {
	if s.store == nil {
		return nil
	}
	return s.store.Close()
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// job statuses, as reported in envelopes and the events stream.
const (
	statusQueued   = "queued"
	statusRunning  = "running"
	statusDone     = "done"
	statusFailed   = "failed"
	statusCanceled = "canceled"
)

// errClientGone marks a job whose client disconnected while it was
// still queued; no response is ever written for it.
var errClientGone = &apiError{
	Status: http.StatusGatewayTimeout, Code: "canceled",
	Message: "client disconnected before the compile started",
}

// job is one admitted compile request moving through the queue, the
// worker pool, and the retained-results map.
type job struct {
	id      string
	traceID string

	circ     *circuit.Circuit
	circName string
	opts     core.Options // budgets/ctx applied at dequeue
	baseCtx  context.Context
	deadline time.Time     // soft deadline in the server clock's domain
	softFor  time.Duration // the deadline duration, for reporting
	admitted time.Time

	rec    *obs.Recorder
	tracer *trace.Tracer
	events *eventLog
	log    *logx.Logger // request-scoped: carries job + trace_id attrs

	mu        sync.Mutex
	state     string
	res       *core.Result
	manifest  *report.Manifest
	apiErr    *apiError
	queueMS   float64
	compileMS float64
	cancelFn  context.CancelFunc
	abortFlag bool

	done chan struct{}
}

func (j *job) setQueueMS(start time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.queueMS = float64(start.Sub(j.admitted).Nanoseconds()) / 1e6
	if j.state == statusQueued {
		j.state = statusRunning
	}
}

func (j *job) setCompileMS(ms float64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.compileMS = ms
}

func (j *job) setCancel(fn context.CancelFunc) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cancelFn = fn
	if j.abortFlag {
		fn()
	}
}

// abort requests cancellation: a queued job is skipped at dequeue, a
// running one has its compile context canceled.
func (j *job) abort() {
	j.mu.Lock()
	fn := j.cancelFn
	j.abortFlag = true
	j.mu.Unlock()
	if fn != nil {
		fn()
	}
}

func (j *job) aborted() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.abortFlag
}

// complete transitions the job to a terminal state, emits the final
// stream event, and releases every waiter.
func (j *job) complete(state string, res *core.Result, m *report.Manifest, apiErr *apiError) {
	j.mu.Lock()
	j.state = state
	j.res = res
	j.manifest = m
	j.apiErr = apiErr
	j.mu.Unlock()

	msg := "done status=" + state
	if res != nil {
		msg = fmt.Sprintf("done status=%s latency_ns=%.1f fidelity=%.5f degraded=%t",
			state, res.Latency, res.Fidelity, res.Degraded)
	} else if apiErr != nil {
		msg = fmt.Sprintf("done status=%s code=%s", state, apiErr.Code)
	}
	j.events.append(obs.Event{Time: time.Now(), Stage: "serve", Msg: msg})
	j.events.close()
	close(j.done)
}

// snapshotState reads the job's mutable fields consistently.
func (j *job) snapshotState() (state string, res *core.Result, m *report.Manifest, apiErr *apiError, queueMS, compileMS float64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.res, j.manifest, j.apiErr, j.queueMS, j.compileMS
}

// configMap flattens the knobs that shaped this compile for the
// manifest fingerprint; keep in sync with buildOptions.
func (j *job) configMap() map[string]string {
	mode := "full"
	if j.opts.Mode == core.QOCEstimate {
		mode = "estimate"
	}
	return map[string]string{
		"mode":        mode,
		"workers":     fmt.Sprintf("%d", j.opts.Workers),
		"grape_iters": fmt.Sprintf("%d", j.opts.GRAPEIters),
		"route":       fmt.Sprintf("%t", j.opts.Route),
		"seed":        fmt.Sprintf("%d", j.opts.Seed),
		"deadline_ms": fmt.Sprintf("%d", j.softFor.Milliseconds()),
	}
}

// loadCircuit resolves a request's circuit source: inline QASM or a
// built-in benchmark name.
func loadCircuit(req *CompileRequest) (*circuit.Circuit, string, *apiError) {
	switch {
	case req.QASM != "" && req.Circuit != "":
		return nil, "", badRequest("request sets both qasm and circuit; pick one")
	case req.QASM != "":
		prog, err := parseQASM(req.QASM)
		if err != nil {
			return nil, "", badRequest(fmt.Sprintf("invalid qasm: %v", err))
		}
		return prog, qasmName(req.QASM), nil
	case req.Circuit != "":
		c, err := benchcirc.Get(req.Circuit)
		if err != nil {
			return nil, "", &apiError{Status: http.StatusNotFound, Code: "unknown_circuit",
				Message: fmt.Sprintf("unknown benchmark circuit %q (see GET /v1/stats for the list)", req.Circuit)}
		}
		return c, req.Circuit, nil
	default:
		return nil, "", badRequest("request needs qasm (OpenQASM 2.0 source) or circuit (benchmark name)")
	}
}

// device builds the target device for a circuit. The service models
// the same IBM-flavoured linear chain the CLIs use; multi-device
// support is a config axis for a later PR.
func device(c *circuit.Circuit) *hardware.Device {
	return hardware.LinearChain(c.NumQubits)
}
