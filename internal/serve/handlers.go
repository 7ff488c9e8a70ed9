package serve

import (
	gocontext "context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"epoc/internal/benchcirc"
	"epoc/internal/circuit"
	"epoc/internal/core"
	"epoc/internal/obs"
	"epoc/internal/pulse"
	"epoc/internal/qasm"
	"epoc/internal/report"
	"epoc/internal/synth"
)

// TraceIDHeader carries the request's trace ID: honored inbound (so a
// caller can stitch the compile into its own trace), always set on
// the response — including errors — and stamped as trace_id on every
// log record the request writes. See SERVING.md "Trace IDs".
const TraceIDHeader = "Epoc-Trace-Id"

// CompileRequest is the POST /v1/compile body. Exactly one of QASM
// (inline OpenQASM 2.0 source) or Circuit (a built-in benchmark name)
// selects the input.
type CompileRequest struct {
	QASM    string `json:"qasm,omitempty"`
	Circuit string `json:"circuit,omitempty"`

	Options RequestOptions `json:"options,omitempty"`

	// DeadlineMS is the soft deadline for the whole request, queue
	// wait included, mapped onto core.Budgets.Total at dequeue: the
	// compile degrades to fit rather than failing (DESIGN.md §11).
	// 0 means the server's default; values above the server's max are
	// clamped.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`

	// Async makes the POST return 202 immediately with the job's
	// status and events URLs instead of blocking until the compile
	// finishes.
	Async bool `json:"async,omitempty"`
}

// RequestOptions is the per-request subset of core.Options the API
// exposes. Zero values take server defaults.
type RequestOptions struct {
	Strategy   string `json:"strategy,omitempty"`    // gate-based | accqoc | paqoc | epoc-nogroup | epoc (default epoc)
	Mode       string `json:"mode,omitempty"`        // full (GRAPE, default) | estimate (calibrated model)
	Workers    int    `json:"workers,omitempty"`     // per-compile synthesis/QOC workers (default: server config)
	GrapeIters int    `json:"grape_iters,omitempty"` // GRAPE iteration budget (default 200)
	Route      bool   `json:"route,omitempty"`       // map onto the device topology first
	Seed       int64  `json:"seed,omitempty"`        // optimizer seed (default 1)
	Budgets    string `json:"budgets,omitempty"`     // per-stage budgets, core.ParseBudgets grammar
}

// CompileResponse is the envelope for POST /v1/compile and
// GET /v1/compile/{id}: job identity, timing, per-request cache
// effectiveness, and — once done — the PR-5 run manifest.
type CompileResponse struct {
	ID      string `json:"id"`
	TraceID string `json:"trace_id"`
	Status  string `json:"status"` // queued | running | done | failed | canceled

	QueueMS   float64 `json:"queue_ms,omitempty"`
	CompileMS float64 `json:"compile_ms,omitempty"`

	Degraded       bool     `json:"degraded,omitempty"`
	DegradeReasons []string `json:"degrade_reasons,omitempty"`

	Cache    *CacheStats      `json:"cache,omitempty"`
	Manifest *report.Manifest `json:"manifest,omitempty"`
	Error    *ErrorBody       `json:"error,omitempty"`

	// Async navigation.
	StatusURL string `json:"status_url,omitempty"`
	EventsURL string `json:"events_url,omitempty"`
}

// CacheStats reports what the process-wide caches did for one request
// (the per-request numbers) and how big they have grown (process
// totals) — the warm-vs-cold signal SERVING.md's capacity section is
// built on.
type CacheStats struct {
	SynthHits      int `json:"synth_hits"`
	SynthMisses    int `json:"synth_misses"`
	LibraryHits    int `json:"library_hits"`
	LibraryMisses  int `json:"library_misses"`
	SynthEntries   int `json:"synth_entries"`
	LibraryEntries int `json:"library_entries"`
}

// ErrorBody is the uniform error payload: every non-2xx response
// carries {"error": {"code", "message"}}.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// apiError pairs an ErrorBody with its HTTP status.
type apiError struct {
	Status  int
	Code    string
	Message string
}

func (e *apiError) Error() string { return e.Message }

func badRequest(msg string) *apiError {
	return &apiError{Status: http.StatusBadRequest, Code: "invalid_request", Message: msg}
}

// HealthResponse is the GET /v1/healthz body.
type HealthResponse struct {
	Status     string `json:"status"` // ok | draining
	Workers    int    `json:"workers"`
	QueueLen   int    `json:"queue_len"`
	QueueCap   int    `json:"queue_cap"`
	UptimeMS   int64  `json:"uptime_ms"`
	RetainJobs int    `json:"retain_jobs"`
}

// StatsResponse is the GET /v1/stats body: server counters, cache
// totals, and the benchmark-circuit catalog.
type StatsResponse struct {
	Counters map[string]int64 `json:"counters,omitempty"`
	Cache    CacheTotals      `json:"cache"`
	Store    *StoreTotals     `json:"store,omitempty"` // nil when no -store is configured
	Queue    QueueStats       `json:"queue"`
	Circuits []string         `json:"circuits"`
}

// CacheTotals is the process-wide cache accounting in /v1/stats: the
// entry counts of the shared caches, and hit/miss counts summed over
// completed requests, so each equals the sum of the per-request
// CacheStats field of the same name. SynthHits includes
// SynthCoalesced, as the per-request count does.
type CacheTotals struct {
	SynthEntries   int   `json:"synth_entries"`
	SynthHits      int64 `json:"synth_hits"`
	SynthMisses    int64 `json:"synth_misses"`
	SynthCoalesced int64 `json:"synth_coalesced"`
	LibraryEntries int   `json:"library_entries"`
	LibraryHits    int64 `json:"library_hits"`
	LibraryMisses  int64 `json:"library_misses"`
}

// StoreTotals is the persistent store's accounting in /v1/stats: what
// was on disk at startup, what this process has learned and flushed,
// and what was skipped as corrupt — the restart-warmness dashboard.
type StoreTotals struct {
	Namespace      string `json:"namespace"`
	Dir            string `json:"dir"`
	PulseRecords   int    `json:"pulse_records"` // loaded at startup
	SynthRecords   int    `json:"synth_records"`
	WarmPulses     int64  `json:"warm_pulses"` // imported into the caches
	WarmSynth      int64  `json:"warm_synth"`
	PulseHarvested int64  `json:"pulse_harvested"` // new records staged this process
	SynthHarvested int64  `json:"synth_harvested"`
	Flushed        int64  `json:"flushed"` // records written to disk
	Corrupt        int64  `json:"corrupt"` // files skipped at startup
}

// QueueStats is the admission-control state in /v1/stats. Len,
// Inflight and AvgMS are also exported as gauges on /metrics
// (epoc_serve_queue_depth, epoc_serve_inflight,
// epoc_serve_avg_compile_ms).
type QueueStats struct {
	Workers  int     `json:"workers"`
	Len      int     `json:"len"`
	Cap      int     `json:"cap"`
	Inflight int     `json:"inflight"`
	AvgMS    float64 `json:"avg_compile_ms"`
	Draining bool    `json:"draining"`
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/compile", s.handleCompile)
	s.mux.HandleFunc("GET /v1/compile/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/compile/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.routesMetrics()
}

// handleCompile admits a compile request and, unless async, blocks
// until it finishes and writes the manifest envelope.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	s.rec.Add("serve/requests", 1)
	// Trace-ID contract: a well-formed inbound ID is honored; otherwise
	// the job ID doubles as the trace ID, so even a request rejected
	// before admission carries a non-empty Epoc-Trace-Id. The access-log
	// middleware pre-stamps the header (the inbound ID, or a fresh
	// newID() when none usable); when the stamp is the middleware's own
	// mint we adopt it as the job ID so the access record, the job and
	// the response all agree without violating the job-ID fallback.
	inbound := requestTraceID(r)
	preset := w.Header().Get(TraceIDHeader)
	var id, traceID string
	switch {
	case preset != "" && preset != inbound:
		id, traceID = preset, preset
	case inbound != "":
		id, traceID = newID(), inbound
	default:
		id = newID()
		traceID = id
	}
	w.Header().Set(TraceIDHeader, traceID)

	req, apiErr := s.decodeRequest(r)
	if apiErr != nil {
		s.rec.Add("serve/invalid", 1)
		writeError(w, apiErr)
		return
	}
	j, apiErr := s.prepareJob(r, req, id, traceID)
	if apiErr != nil {
		s.rec.Add("serve/invalid", 1)
		writeError(w, apiErr)
		return
	}

	// The queued event goes in before admission so it always precedes
	// the worker's "compiling" event; if admission fails the job (and
	// its log) is simply discarded.
	j.events.append(obs.Event{Time: j.admitted, Stage: "serve",
		Msg: fmt.Sprintf("queued id=%s trace=%s position=%d", j.id, j.traceID, len(s.queue))})

	ok, draining := s.admit(j)
	if !ok {
		if draining {
			s.rec.Add("serve/rejected/draining", 1)
			writeError(w, &apiError{Status: http.StatusServiceUnavailable, Code: "draining",
				Message: "server is shutting down and no longer accepts compiles"})
			return
		}
		s.rec.Add("serve/rejected/queue_full", 1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
		writeError(w, &apiError{Status: http.StatusTooManyRequests, Code: "queue_full",
			Message: fmt.Sprintf("compile queue is full (%d queued, %d workers); retry after the indicated delay",
				len(s.queue), s.cfg.Workers)})
		return
	}
	s.rec.Add("serve/accepted", 1)

	if req.Async {
		writeJSON(w, http.StatusAccepted, &CompileResponse{
			ID: j.id, TraceID: j.traceID, Status: statusQueued,
			StatusURL: "/v1/compile/" + j.id,
			EventsURL: "/v1/compile/" + j.id + "/events",
		})
		return
	}

	select {
	case <-j.done:
		s.writeJobResponse(w, r, j)
	case <-r.Context().Done():
		// Client gone: cancel the compile (queued jobs are skipped at
		// dequeue, running ones abort at the next pipeline checkpoint).
		// There is nobody left to write a response to.
		j.abort()
	}
}

// handleStatus reports a job's current envelope; for finished jobs
// that is the same body the synchronous POST returned.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, &apiError{Status: http.StatusNotFound, Code: "unknown_job",
			Message: "no such compile job (finished jobs are retained only up to the configured limit)"})
		return
	}
	w.Header().Set(TraceIDHeader, j.traceID)
	s.writeJobResponse(w, r, j)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.Draining() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, &HealthResponse{
		Status:     status,
		Workers:    s.cfg.Workers,
		QueueLen:   len(s.queue),
		QueueCap:   s.cfg.QueueDepth,
		UptimeMS:   time.Since(s.started).Milliseconds(),
		RetainJobs: s.cfg.RetainJobs,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	avg := s.avgMS
	draining := s.draining
	s.mu.Unlock()
	snap := s.rec.Snapshot()
	var st *StoreTotals
	if s.store != nil {
		c := s.store.Counters()
		pn, sn := s.store.Len()
		st = &StoreTotals{
			Namespace:      s.store.Namespace(),
			Dir:            s.store.Dir(),
			PulseRecords:   pn,
			SynthRecords:   sn,
			WarmPulses:     c.WarmPulses,
			WarmSynth:      c.WarmSynth,
			PulseHarvested: c.PulseHarvested,
			SynthHarvested: c.SynthHarvested,
			Flushed:        c.Flushed,
			Corrupt:        c.Corrupt,
		}
	}
	writeJSON(w, http.StatusOK, &StatsResponse{
		Counters: snap.Counters,
		Store:    st,
		Cache: CacheTotals{
			SynthEntries:   s.cache.Len(),
			SynthHits:      snap.Counters["synthcache/hit"] + snap.Counters["synthcache/coalesced"],
			SynthMisses:    snap.Counters["synthcache/miss"],
			SynthCoalesced: snap.Counters["synthcache/coalesced"],
			LibraryEntries: s.lib.Len(),
			LibraryHits:    snap.Counters["library/hits"],
			LibraryMisses:  snap.Counters["library/misses"],
		},
		Queue: QueueStats{
			Workers:  s.cfg.Workers,
			Len:      len(s.queue),
			Cap:      s.cfg.QueueDepth,
			Inflight: int(s.inflight.Load()),
			AvgMS:    avg,
			Draining: draining,
		},
		Circuits: benchcirc.Names(),
	})
}

// decodeRequest parses and bounds the POST body.
func (s *Server) decodeRequest(r *http.Request) (*CompileRequest, *apiError) {
	r.Body = http.MaxBytesReader(nil, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req CompileRequest
	if err := dec.Decode(&req); err != nil {
		if _, ok := err.(*http.MaxBytesError); ok {
			return nil, &apiError{Status: http.StatusRequestEntityTooLarge, Code: "body_too_large",
				Message: fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes)}
		}
		return nil, badRequest(fmt.Sprintf("invalid JSON body: %v", err))
	}
	return &req, nil
}

// prepareJob validates the request and builds the admitted job:
// circuit, options, deadline, recorder, event stream.
func (s *Server) prepareJob(r *http.Request, req *CompileRequest, id, traceID string) (*job, *apiError) {
	circ, name, apiErr := loadCircuit(req)
	if apiErr != nil {
		return nil, apiErr
	}
	if circ.NumQubits > s.cfg.MaxQubits {
		return nil, badRequest(fmt.Sprintf("circuit has %d qubits; this server accepts at most %d",
			circ.NumQubits, s.cfg.MaxQubits))
	}
	opts, apiErr := s.buildOptions(&req.Options, circ)
	if apiErr != nil {
		return nil, apiErr
	}

	softFor := time.Duration(req.DeadlineMS) * time.Millisecond
	if softFor <= 0 {
		softFor = s.cfg.DefaultDeadline
	}
	if softFor > s.cfg.MaxDeadline {
		softFor = s.cfg.MaxDeadline
	}

	now := s.now()

	rec := obs.New()
	opts.Obs = rec
	// The job logger carries the job and trace IDs on every record it
	// emits — its own lifecycle records and, via opts.Log, the core
	// pipeline's stage-boundary records — so one grep by trace_id
	// stitches the access log, the job log and the stage log together.
	jlog := s.log.With("job", id, "trace_id", traceID)
	opts.Log = jlog

	j := &job{
		id:       id,
		traceID:  traceID,
		circ:     circ,
		circName: name,
		opts:     opts,
		baseCtx:  baseContext(r, req),
		deadline: now.Add(softFor),
		softFor:  softFor,
		admitted: now,
		rec:      rec,
		events:   newEventLog(),
		log:      jlog,
		state:    statusQueued,
		done:     make(chan struct{}),
	}
	// Stream every obs event (GRAPE convergence, duration-search
	// probes) to the job's event log as it is recorded.
	rec.SetSink(j.events.append)
	return j, nil
}

// baseContext picks the compile's base context: the request's for
// sync jobs (client disconnect cancels), detached for async ones (the
// job outlives the POST by design).
func baseContext(r *http.Request, req *CompileRequest) gocontext.Context {
	if req.Async {
		return gocontext.WithoutCancel(r.Context())
	}
	return r.Context()
}

// buildOptions maps the wire options onto core.Options, applying
// server defaults and rejecting unknown enum values.
func (s *Server) buildOptions(ro *RequestOptions, circ *circuit.Circuit) (core.Options, *apiError) {
	opts := core.Options{
		Device:     device(circ),
		Workers:    s.cfg.CompileWorkers,
		SynthCache: s.cache,
		Library:    s.lib,
		// The shared store, when configured. core checks the namespace
		// per compile: a request whose options diverge from the server
		// defaults skips the store instead of polluting it.
		Store: s.store,
		Clock: s.cfg.Clock,
	}
	switch ro.Strategy {
	case "":
		opts.Strategy = core.EPOC
	case string(core.GateBased), string(core.AccQOC), string(core.PAQOC), string(core.EPOCNoGroup), string(core.EPOC):
		opts.Strategy = core.Strategy(ro.Strategy)
	default:
		return core.Options{}, badRequest(fmt.Sprintf(
			"unknown strategy %q (want gate-based, accqoc, paqoc, epoc-nogroup or epoc)", ro.Strategy))
	}
	switch ro.Mode {
	case "", "full":
		opts.Mode = core.QOCFull
	case "estimate":
		opts.Mode = core.QOCEstimate
	default:
		return core.Options{}, badRequest(fmt.Sprintf("unknown mode %q (want full or estimate)", ro.Mode))
	}
	if ro.Workers > 0 {
		opts.Workers = ro.Workers
	}
	if opts.Workers > 16 {
		opts.Workers = 16
	}
	// Apply the pipeline's documented defaults here rather than leaving
	// zeros for core's withDefaults: the manifest's config fingerprint
	// is built from these values, and "unset" must fingerprint the same
	// as "explicitly the default".
	opts.GRAPEIters = 200
	if ro.GrapeIters > 0 {
		opts.GRAPEIters = ro.GrapeIters
	}
	opts.Seed = 1
	if ro.Seed != 0 {
		opts.Seed = ro.Seed
	}
	opts.Route = ro.Route
	if ro.Budgets != "" {
		b, err := core.ParseBudgets(ro.Budgets)
		if err != nil {
			return core.Options{}, badRequest(fmt.Sprintf("invalid budgets: %v", err))
		}
		opts.Budgets = b
	}
	// A request whose options leave the store's namespace must not
	// share the in-memory caches either: its pulses would otherwise be
	// library-hit by a later matched compile and harvested into a
	// namespace whose physics they don't satisfy. Give it throwaway
	// caches; core drops the store itself on the same mismatch.
	if s.store != nil && core.StoreNamespace(opts) != s.store.Namespace() {
		opts.SynthCache = synth.NewCache()
		opts.Library = pulse.NewLibrary(true)
	}
	return opts, nil
}

// writeJobResponse renders a job's envelope at whatever state it is
// in. Failures keep their original HTTP status so a poll of a failed
// job sees the same code the synchronous caller did.
func (s *Server) writeJobResponse(w http.ResponseWriter, r *http.Request, j *job) {
	state, res, m, apiErr, queueMS, compileMS := j.snapshotState()
	// Enrich the access-log record with the queue-wait vs compile-time
	// split the HTTP layer cannot see.
	jobAccessInfo(r.Context()).setJob(queueMS, compileMS, res != nil && res.Degraded)
	resp := &CompileResponse{
		ID:        j.id,
		TraceID:   j.traceID,
		Status:    state,
		QueueMS:   queueMS,
		CompileMS: compileMS,
		Manifest:  m,
		EventsURL: "/v1/compile/" + j.id + "/events",
	}
	code := http.StatusOK
	switch state {
	case statusQueued, statusRunning:
		code = http.StatusOK
	case statusDone:
		if res != nil {
			resp.Degraded = res.Degraded
			resp.DegradeReasons = res.DegradeReasons
			resp.Cache = &CacheStats{
				SynthHits:      res.Stats.SynthCacheHits,
				SynthMisses:    res.Stats.SynthCacheMisses,
				LibraryHits:    res.Stats.LibraryHits,
				LibraryMisses:  res.Stats.LibraryMisses,
				SynthEntries:   s.cache.Len(),
				LibraryEntries: s.lib.Len(),
			}
		}
	default: // failed, canceled
		code = http.StatusInternalServerError
		if apiErr != nil {
			code = apiErr.Status
			resp.Error = &ErrorBody{Code: apiErr.Code, Message: apiErr.Message}
		}
	}
	writeJSON(w, code, resp)
}

// requestTraceID returns the sanitized inbound trace ID, or "" when
// absent or unusable (the job ID then becomes the trace ID).
func requestTraceID(r *http.Request) string {
	id := r.Header.Get(TraceIDHeader)
	if id == "" || len(id) > 64 {
		return ""
	}
	for _, c := range id {
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c == '-', c == '_', c == '.':
		default:
			return ""
		}
	}
	return id
}

// qasmName labels an inline-QASM run for the manifest: a content
// digest, so identical sources compare and distinct ones do not.
func qasmName(src string) string {
	sum := sha256.Sum256([]byte(src))
	return "qasm:" + hex.EncodeToString(sum[:6])
}

// parseQASM wraps the parser to return just the circuit.
func parseQASM(src string) (*circuit.Circuit, error) {
	prog, err := qasm.Parse(src)
	if err != nil {
		return nil, err
	}
	return prog.Circuit, nil
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// Encoding a value we just built cannot fail; a broken connection
	// surfaces as a write error there is nobody to hand to.
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, e *apiError) {
	writeJSON(w, e.Status, struct {
		Error ErrorBody `json:"error"`
	}{ErrorBody{Code: e.Code, Message: e.Message}})
}
