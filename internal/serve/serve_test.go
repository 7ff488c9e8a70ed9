package serve

// The handler suite runs entirely against httptest with an injected
// compile function and (where timing matters) a faultclock.Fake, per
// the repo's no-sleeps convention: every wait is a channel receive,
// every duration is fake-clock arithmetic, and the whole file is
// -race clean.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"epoc/internal/circuit"
	"epoc/internal/core"
	"epoc/internal/faultclock"
)

// compileFunc matches Server.compile.
type compileFunc func(ctx context.Context, c *circuit.Circuit, opts core.Options) (*core.Result, error)

// okResult is a minimal successful pipeline result for stubbed compiles.
func okResult() *core.Result {
	return &core.Result{
		Strategy: core.EPOC,
		Latency:  100,
		Fidelity: 0.99,
	}
}

// newTestServer builds a server, swaps in the stub compile function
// (nil keeps the real pipeline), and tears it down with the test.
func newTestServer(t testing.TB, cfg Config, fn compileFunc) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if fn != nil {
		s.compile = fn
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

// post sends a synchronous JSON request through the mux and returns
// the recorder.
func post(s *Server, body string, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/compile", strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

func get(s *Server, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

func decodeEnvelope(t *testing.T, w *httptest.ResponseRecorder) *CompileResponse {
	t.Helper()
	var resp CompileResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode envelope: %v\nbody: %s", err, w.Body.String())
	}
	return &resp
}

func errorCode(t *testing.T, w *httptest.ResponseRecorder) string {
	t.Helper()
	var body struct {
		Error ErrorBody `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatalf("decode error body: %v\nbody: %s", err, w.Body.String())
	}
	return body.Error.Code
}

// waitTrue spins (yielding) until cond holds; it is bounded so a
// broken condition fails the test instead of hanging it. The condition
// flips on another goroutine's mutex write, not on wall time, so this
// stays deterministic.
func waitTrue(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 1_000_000; i++ {
		if cond() {
			return
		}
		runtime.Gosched()
	}
	t.Fatalf("condition never held: %s", what)
}

// TestDeadlineMapsToBudgets pins the deadline→budget contract from
// DESIGN.md §11: deadline_ms becomes Budgets.Total at dequeue, an
// explicit smaller total wins, and per-stage budgets pass through
// alongside the derived total.
func TestDeadlineMapsToBudgets(t *testing.T) {
	clk := faultclock.NewFake()
	captured := make(chan core.Budgets, 1)
	s := newTestServer(t, Config{Workers: 1, Clock: clk},
		func(ctx context.Context, c *circuit.Circuit, opts core.Options) (*core.Result, error) {
			captured <- opts.Budgets
			return okResult(), nil
		})

	cases := []struct {
		name string
		body string
		want func(t *testing.T, b core.Budgets)
	}{
		{
			name: "deadline becomes Total",
			body: `{"circuit":"ghz","deadline_ms":5000}`,
			want: func(t *testing.T, b core.Budgets) {
				if b.Total != 5*time.Second {
					t.Fatalf("Budgets.Total = %v, want 5s", b.Total)
				}
			},
		},
		{
			name: "explicit smaller total wins",
			body: `{"circuit":"ghz","deadline_ms":5000,"options":{"budgets":"total=2s"}}`,
			want: func(t *testing.T, b core.Budgets) {
				if b.Total != 2*time.Second {
					t.Fatalf("Budgets.Total = %v, want the explicit 2s", b.Total)
				}
			},
		},
		{
			name: "explicit larger total clamped to deadline",
			body: `{"circuit":"ghz","deadline_ms":5000,"options":{"budgets":"total=1h"}}`,
			want: func(t *testing.T, b core.Budgets) {
				if b.Total != 5*time.Second {
					t.Fatalf("Budgets.Total = %v, want clamp to 5s", b.Total)
				}
			},
		},
		{
			name: "stage budgets ride along",
			body: `{"circuit":"ghz","deadline_ms":5000,"options":{"budgets":"synth=1s,qoc-iters=50"}}`,
			want: func(t *testing.T, b core.Budgets) {
				if b.SynthTime != time.Second || b.QOCIters != 50 {
					t.Fatalf("stage budgets = synth %v, qoc-iters %d; want 1s, 50", b.SynthTime, b.QOCIters)
				}
				if b.Total != 5*time.Second {
					t.Fatalf("Budgets.Total = %v, want 5s", b.Total)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := post(s, tc.body, nil)
			if w.Code != http.StatusOK {
				t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
			}
			tc.want(t, <-captured)
		})
	}
}

// TestQueueFullReturns429 fills one worker and a depth-1 queue with
// blocked compiles; the next request must bounce with 429 and a
// Retry-After hint instead of queueing unboundedly.
func TestQueueFullReturns429(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1},
		func(ctx context.Context, c *circuit.Circuit, opts core.Options) (*core.Result, error) {
			started <- struct{}{}
			select {
			case <-release:
				return okResult(), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		})

	// Occupy the worker, then the queue slot (async so the POSTs return).
	w := post(s, `{"circuit":"ghz","async":true}`, nil)
	if w.Code != http.StatusAccepted {
		t.Fatalf("first admit: status = %d", w.Code)
	}
	<-started // the worker is now inside the blocked compile
	if w = post(s, `{"circuit":"ghz","async":true}`, nil); w.Code != http.StatusAccepted {
		t.Fatalf("second admit: status = %d", w.Code)
	}

	w = post(s, `{"circuit":"ghz"}`, nil)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-admission: status = %d, want 429; body %s", w.Code, w.Body.String())
	}
	if code := errorCode(t, w); code != "queue_full" {
		t.Fatalf("error code = %q, want queue_full", code)
	}
	if ra := w.Header().Get("Retry-After"); ra == "" {
		t.Fatal("429 response is missing Retry-After")
	}
	if w.Header().Get(TraceIDHeader) == "" {
		t.Fatal("429 response is missing the trace-ID header")
	}

	close(release)
	<-started // second job runs after the first frees the worker
}

// TestClientDisconnectCancelsCompile verifies the synchronous path's
// cancellation contract: when the caller drops the connection, the
// compile's context is canceled and the job lands in state canceled.
func TestClientDisconnectCancelsCompile(t *testing.T) {
	started := make(chan struct{})
	s := newTestServer(t, Config{Workers: 1},
		func(ctx context.Context, c *circuit.Circuit, opts core.Options) (*core.Result, error) {
			close(started)
			<-ctx.Done() // a real compile polls this at every gate checkpoint
			return nil, ctx.Err()
		})

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		srv.URL+"/v1/compile", strings.NewReader(`{"circuit":"ghz"}`))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	<-started // the compile is running under the request's context
	cancel()  // client walks away
	if err := <-errc; err == nil {
		t.Fatal("canceled request returned a response instead of an error")
	}

	// The job is internal state now — nobody is left to read a response
	// — so assert on it directly.
	var j *job
	s.mu.Lock()
	for _, cand := range s.jobs {
		j = cand
	}
	s.mu.Unlock()
	if j == nil {
		t.Fatal("job not found")
	}
	<-j.done
	state, _, _, apiErr, _, _ := j.snapshotState()
	if state != statusCanceled {
		t.Fatalf("job state = %q, want canceled", state)
	}
	if apiErr == nil || apiErr.Code != "canceled" {
		t.Fatalf("job error = %+v, want code canceled", apiErr)
	}
}

// TestStatsCacheTotalsSumRequests: the /v1/stats cache hit and miss
// totals are the sums of the per-request cache numbers, including the
// duplicate blocks a request serves from its own synthesis.
func TestStatsCacheTotalsSumRequests(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1}, nil) // real compile
	var sum CacheTotals
	for _, circ := range []string{"qaoa", "ghz", "qaoa"} {
		w := post(s, fmt.Sprintf(`{"circuit":%q,"options":{"mode":"estimate"}}`, circ), nil)
		env := decodeEnvelope(t, w)
		if env.Status != statusDone || env.Cache == nil {
			t.Fatalf("%s: status %q, cache %+v", circ, env.Status, env.Cache)
		}
		sum.SynthHits += int64(env.Cache.SynthHits)
		sum.SynthMisses += int64(env.Cache.SynthMisses)
		sum.LibraryHits += int64(env.Cache.LibraryHits)
		sum.LibraryMisses += int64(env.Cache.LibraryMisses)
	}
	var stats StatsResponse
	if err := json.Unmarshal(get(s, "/v1/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	got := stats.Cache
	if got.SynthHits != sum.SynthHits || got.SynthMisses != sum.SynthMisses ||
		got.LibraryHits != sum.LibraryHits || got.LibraryMisses != sum.LibraryMisses {
		t.Fatalf("/v1/stats cache %+v, per-request sums %+v", got, sum)
	}
}

// TestSharedCacheWarmSecondRequest drives the real pipeline twice with
// the same circuit through one server: the second request must be
// served from the process-wide synthesis cache. This is the service's
// reason to exist (warm-cache amortization across requests), so it
// runs the genuine core.CompileContext in estimate mode.
func TestSharedCacheWarmSecondRequest(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1}, nil) // real compile

	body := `{"circuit":"ghz","options":{"mode":"estimate","seed":1}}`
	w1 := post(s, body, nil)
	if w1.Code != http.StatusOK {
		t.Fatalf("cold request: status = %d, body %s", w1.Code, w1.Body.String())
	}
	cold := decodeEnvelope(t, w1)
	if cold.Status != statusDone || cold.Cache == nil {
		t.Fatalf("cold request: status %q, cache %+v", cold.Status, cold.Cache)
	}
	if cold.Cache.SynthMisses == 0 {
		t.Fatalf("cold request reported no synth misses: %+v", cold.Cache)
	}

	w2 := post(s, body, nil)
	warm := decodeEnvelope(t, w2)
	if warm.Cache == nil || warm.Cache.SynthHits == 0 {
		t.Fatalf("warm request saw no synth-cache hits: %+v", warm.Cache)
	}
	if warm.Cache.SynthMisses != 0 {
		t.Fatalf("warm request re-synthesized %d blocks", warm.Cache.SynthMisses)
	}
	if warm.Cache.LibraryHits == 0 {
		t.Fatalf("warm request saw no pulse-library hits: %+v", warm.Cache)
	}

	// Identical input and config ⇒ identical manifest fingerprint, the
	// property that makes cross-request baseline comparison work.
	if cold.Manifest == nil || warm.Manifest == nil {
		t.Fatal("missing manifest on a done response")
	}
	if cold.Manifest.ConfigFingerprint != warm.Manifest.ConfigFingerprint {
		t.Fatalf("config fingerprints differ: %s vs %s",
			cold.Manifest.ConfigFingerprint, warm.Manifest.ConfigFingerprint)
	}
}

// TestGracefulShutdownDrains starts a blocked compile, begins
// Shutdown, and checks the full drain contract: new work 503s, the
// in-flight compile finishes and its synchronous response flushes,
// then Shutdown returns.
func TestGracefulShutdownDrains(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.compile = func(ctx context.Context, c *circuit.Circuit, opts core.Options) (*core.Result, error) {
		close(started)
		select {
		case <-release:
			return okResult(), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	inflight := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		inflight <- post(s, `{"circuit":"ghz"}`, nil)
	}()
	<-started

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()
	waitTrue(t, "server starts draining", s.Draining)

	// New work is refused while draining.
	w := post(s, `{"circuit":"ghz"}`, nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("admission while draining: status = %d, want 503", w.Code)
	}
	if code := errorCode(t, w); code != "draining" {
		t.Fatalf("error code = %q, want draining", code)
	}
	if hz := get(s, "/v1/healthz"); hz.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: status = %d, want 503", hz.Code)
	}

	// The in-flight compile still completes and its caller gets 200.
	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	got := <-inflight
	if got.Code != http.StatusOK {
		t.Fatalf("drained request: status = %d, body %s", got.Code, got.Body.String())
	}
	if resp := decodeEnvelope(t, got); resp.Status != statusDone {
		t.Fatalf("drained request finished in state %q", resp.Status)
	}
}

// TestShutdownDeadlineAbortsInflight covers the other Shutdown arm: if
// the drain context expires, running compiles are canceled and
// Shutdown still joins the pool before returning the context error.
func TestShutdownDeadlineAbortsInflight(t *testing.T) {
	started := make(chan struct{})
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.compile = func(ctx context.Context, c *circuit.Circuit, opts core.Options) (*core.Result, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}

	w := post(s, `{"circuit":"ghz","async":true}`, nil)
	if w.Code != http.StatusAccepted {
		t.Fatalf("admit: status = %d", w.Code)
	}
	id := decodeEnvelope(t, w).ID
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // an already-expired drain deadline
	if err := s.Shutdown(ctx); err != context.Canceled {
		t.Fatalf("Shutdown = %v, want context.Canceled", err)
	}
	j := s.lookup(id)
	if j == nil {
		t.Fatal("job evicted during shutdown")
	}
	<-j.done
	if state, _, _, _, _, _ := j.snapshotState(); state != statusCanceled {
		t.Fatalf("job state = %q, want canceled", state)
	}
}

// TestDeadlineExpiredWhileQueued advances the fake clock past a queued
// job's soft deadline before a worker reaches it; the job must fail
// with deadline_exceeded and report 504 on the status endpoint.
func TestDeadlineExpiredWhileQueued(t *testing.T) {
	clk := faultclock.NewFake()
	started := make(chan struct{})
	release := make(chan struct{})
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2, Clock: clk},
		func(ctx context.Context, c *circuit.Circuit, opts core.Options) (*core.Result, error) {
			select {
			case <-started: // already closed: later jobs pass straight through
			default:
				close(started)
				<-release
			}
			return okResult(), nil
		})

	// Blocker occupies the only worker.
	if w := post(s, `{"circuit":"ghz","async":true}`, nil); w.Code != http.StatusAccepted {
		t.Fatalf("blocker: status = %d", w.Code)
	}
	<-started

	// Victim queues behind it with a 1s soft deadline...
	w := post(s, `{"circuit":"ghz","async":true,"deadline_ms":1000}`, nil)
	if w.Code != http.StatusAccepted {
		t.Fatalf("victim: status = %d", w.Code)
	}
	id := decodeEnvelope(t, w).ID

	// ...and the clock jumps past it while the victim is still queued.
	clk.Advance(2 * time.Second)
	close(release)

	j := s.lookup(id)
	if j == nil {
		t.Fatal("victim job not found")
	}
	<-j.done
	sw := get(s, "/v1/compile/"+id)
	if sw.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired job status endpoint: %d, want 504; body %s", sw.Code, sw.Body.String())
	}
	resp := decodeEnvelope(t, sw)
	if resp.Status != statusFailed || resp.Error == nil || resp.Error.Code != "deadline_exceeded" {
		t.Fatalf("expired job envelope: %+v", resp)
	}
}

// TestTraceIDHeader pins the trace-ID contract: a well-formed inbound
// ID is honored on the response and envelope; a malformed one is
// replaced by the job ID; the header is present even on errors.
func TestTraceIDHeader(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1},
		func(ctx context.Context, c *circuit.Circuit, opts core.Options) (*core.Result, error) {
			return okResult(), nil
		})

	w := post(s, `{"circuit":"ghz"}`, map[string]string{TraceIDHeader: "caller-trace.01"})
	if got := w.Header().Get(TraceIDHeader); got != "caller-trace.01" {
		t.Fatalf("honored trace ID: header = %q", got)
	}
	if resp := decodeEnvelope(t, w); resp.TraceID != "caller-trace.01" {
		t.Fatalf("honored trace ID: envelope = %q", resp.TraceID)
	}

	w = post(s, `{"circuit":"ghz"}`, map[string]string{TraceIDHeader: "bad header!"})
	resp := decodeEnvelope(t, w)
	if got := w.Header().Get(TraceIDHeader); got != resp.ID {
		t.Fatalf("malformed trace ID: header %q should fall back to job ID %q", got, resp.ID)
	}

	w = post(s, `{"circuit":"no-such-circuit"}`, map[string]string{TraceIDHeader: "err-trace"})
	if w.Code != http.StatusNotFound {
		t.Fatalf("unknown circuit: status = %d", w.Code)
	}
	if got := w.Header().Get(TraceIDHeader); got != "err-trace" {
		t.Fatalf("error response dropped the trace header: %q", got)
	}
}

// TestEventsStream checks the progress stream end to end: lifecycle
// events, recorder-sink events emitted mid-compile, and the terminal
// done line, replayed in order after the job finished.
func TestEventsStream(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1},
		func(ctx context.Context, c *circuit.Circuit, opts core.Options) (*core.Result, error) {
			opts.Obs.Event("qoc/grape", "iter=1 infidelity=0.5")
			opts.Obs.Event("qoc/grape", "iter=2 infidelity=0.1")
			return okResult(), nil
		})

	w := post(s, `{"circuit":"ghz"}`, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("compile: status = %d", w.Code)
	}
	id := decodeEnvelope(t, w).ID

	ew := get(s, "/v1/compile/"+id+"/events")
	if ew.Code != http.StatusOK {
		t.Fatalf("events: status = %d", ew.Code)
	}
	if ct := ew.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content type = %q", ct)
	}
	var lines []StreamEvent
	for _, raw := range strings.Split(strings.TrimSpace(ew.Body.String()), "\n") {
		var ev StreamEvent
		if err := json.Unmarshal([]byte(raw), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", raw, err)
		}
		lines = append(lines, ev)
	}
	var stages []string
	for _, ev := range lines {
		if ev.Stage != "" {
			stages = append(stages, ev.Stage+":"+firstField(ev.Msg))
		}
	}
	want := []string{"serve:queued", "serve:compiling", "qoc/grape:iter=1", "qoc/grape:iter=2", "serve:done"}
	if fmt.Sprint(stages) != fmt.Sprint(want) {
		t.Fatalf("event sequence = %v, want %v", stages, want)
	}
	last := lines[len(lines)-1]
	if !last.Done || last.Status != statusDone {
		t.Fatalf("terminal line = %+v, want done:true status:done", last)
	}
	for i, ev := range lines {
		if ev.Seq != i {
			t.Fatalf("line %d has seq %d", i, ev.Seq)
		}
	}

	if ew := get(s, "/v1/compile/nope/events"); ew.Code != http.StatusNotFound {
		t.Fatalf("unknown job events: status = %d", ew.Code)
	}
}

// TestEventsStreamRealCompile streams a real full-mode compile: every
// duration-search probe runs one GRAPE ascent, so the stream carries
// one qoc/grape line per qoc/duration_probe timer observation in the
// job manifest, and nothing else from the duration search.
func TestEventsStreamRealCompile(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1}, nil) // real compile
	w := post(s, `{"circuit":"ghz","options":{"mode":"full","grape_iters":30,"seed":1}}`, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("compile: status = %d: %s", w.Code, w.Body.String())
	}
	env := decodeEnvelope(t, w)
	probes := env.Manifest.Obs.Timers["qoc/duration_probe"].Count
	if probes == 0 {
		t.Fatal("full-mode compile ran no duration-search probes")
	}

	ew := get(s, "/v1/compile/"+env.ID+"/events")
	var grape int64
	for _, raw := range strings.Split(strings.TrimSpace(ew.Body.String()), "\n") {
		var ev StreamEvent
		if err := json.Unmarshal([]byte(raw), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", raw, err)
		}
		switch ev.Stage {
		case "qoc/grape":
			grape++
		case "qoc/search":
			t.Fatalf("stream carries a qoc/search line: %q", ev.Msg)
		}
	}
	if grape != probes {
		t.Fatalf("stream has %d qoc/grape lines, manifest has %d qoc/duration_probe observations", grape, probes)
	}
}

func firstField(s string) string {
	if i := strings.IndexByte(s, ' '); i >= 0 {
		return s[:i]
	}
	return s
}

// TestAsyncLifecycle follows the 202 → poll → done flow and checks
// that the async job survives its POST request's context.
func TestAsyncLifecycle(t *testing.T) {
	release := make(chan struct{})
	s := newTestServer(t, Config{Workers: 1},
		func(ctx context.Context, c *circuit.Circuit, opts core.Options) (*core.Result, error) {
			<-release
			if err := ctx.Err(); err != nil {
				return nil, err // would mean the POST's context leaked in
			}
			return okResult(), nil
		})

	// Async jobs run on a context detached from the POST's, so a
	// fire-and-forget client dropping the connection never cancels one.
	w := post(s, `{"circuit":"ghz","async":true}`, nil)
	if w.Code != http.StatusAccepted {
		t.Fatalf("async POST: status = %d", w.Code)
	}
	resp := decodeEnvelope(t, w)
	if resp.Status != statusQueued || resp.StatusURL == "" || resp.EventsURL == "" {
		t.Fatalf("async envelope: %+v", resp)
	}

	if sw := get(s, resp.StatusURL); decodeEnvelope(t, sw).Status == statusFailed {
		t.Fatalf("async job failed early: %s", sw.Body.String())
	}
	close(release)
	j := s.lookup(resp.ID)
	if j == nil {
		t.Fatal("async job not found")
	}
	<-j.done
	sw := get(s, resp.StatusURL)
	if sw.Code != http.StatusOK {
		t.Fatalf("status poll: %d", sw.Code)
	}
	final := decodeEnvelope(t, sw)
	if final.Status != statusDone || final.Manifest == nil {
		t.Fatalf("final envelope: status %q, manifest nil=%t", final.Status, final.Manifest == nil)
	}
}

// TestRequestValidation sweeps the 4xx surface: every rejection has
// the documented status and error code.
func TestRequestValidation(t *testing.T) {
	// MaxQubits 4 admits fredkin (3 qubits) and rejects ghz (8).
	s := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 256, MaxQubits: 4},
		func(ctx context.Context, c *circuit.Circuit, opts core.Options) (*core.Result, error) {
			return okResult(), nil
		})

	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"empty body", ``, http.StatusBadRequest, "invalid_request"},
		{"no source", `{}`, http.StatusBadRequest, "invalid_request"},
		{"both sources", `{"qasm":"OPENQASM 2.0;","circuit":"fredkin"}`, http.StatusBadRequest, "invalid_request"},
		{"unknown circuit", `{"circuit":"nope"}`, http.StatusNotFound, "unknown_circuit"},
		{"bad qasm", `{"qasm":"this is not qasm"}`, http.StatusBadRequest, "invalid_request"},
		{"unknown strategy", `{"circuit":"fredkin","options":{"strategy":"yolo"}}`, http.StatusBadRequest, "invalid_request"},
		{"unknown mode", `{"circuit":"fredkin","options":{"mode":"fast"}}`, http.StatusBadRequest, "invalid_request"},
		{"bad budgets", `{"circuit":"fredkin","options":{"budgets":"total=banana"}}`, http.StatusBadRequest, "invalid_request"},
		{"unknown field", `{"circuit":"fredkin","turbo":true}`, http.StatusBadRequest, "invalid_request"},
		{"too wide", `{"circuit":"ghz"}`, http.StatusBadRequest, "invalid_request"},
		{"body too large", `{"qasm":"` + strings.Repeat("x", 512) + `"}`, http.StatusRequestEntityTooLarge, "body_too_large"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := post(s, tc.body, nil)
			if w.Code != tc.status {
				t.Fatalf("status = %d, want %d; body %s", w.Code, tc.status, w.Body.String())
			}
			if code := errorCode(t, w); code != tc.code {
				t.Fatalf("error code = %q, want %q", code, tc.code)
			}
			if w.Header().Get(TraceIDHeader) == "" {
				t.Fatal("error response is missing the trace-ID header")
			}
		})
	}

	if w := get(s, "/v1/compile/missing"); w.Code != http.StatusNotFound {
		t.Fatalf("unknown job: status = %d", w.Code)
	}
}

// TestStatsAndHealth sanity-checks the observability endpoints after a
// couple of compiles.
func TestStatsAndHealth(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2},
		func(ctx context.Context, c *circuit.Circuit, opts core.Options) (*core.Result, error) {
			return okResult(), nil
		})
	for i := 0; i < 2; i++ {
		if w := post(s, `{"circuit":"ghz"}`, nil); w.Code != http.StatusOK {
			t.Fatalf("compile %d: status = %d", i, w.Code)
		}
	}

	hw := get(s, "/v1/healthz")
	if hw.Code != http.StatusOK {
		t.Fatalf("healthz: status = %d", hw.Code)
	}
	var health HealthResponse
	if err := json.Unmarshal(hw.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Workers != 2 {
		t.Fatalf("health = %+v", health)
	}

	sw := get(s, "/v1/stats")
	var stats StatsResponse
	if err := json.Unmarshal(sw.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Counters["serve/requests"] != 2 || stats.Counters["serve/completed"] != 2 {
		t.Fatalf("counters = %v", stats.Counters)
	}
	if len(stats.Circuits) == 0 {
		t.Fatal("stats lists no benchmark circuits")
	}
	if stats.Queue.Workers != 2 {
		t.Fatalf("queue stats = %+v", stats.Queue)
	}
}

// TestJobEviction bounds the retained-jobs map: with RetainJobs=2 the
// oldest finished job becomes unqueryable after the third completes.
func TestJobEviction(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, RetainJobs: 2},
		func(ctx context.Context, c *circuit.Circuit, opts core.Options) (*core.Result, error) {
			return okResult(), nil
		})
	var ids []string
	for i := 0; i < 3; i++ {
		w := post(s, `{"circuit":"ghz"}`, nil)
		if w.Code != http.StatusOK {
			t.Fatalf("compile %d: status = %d", i, w.Code)
		}
		ids = append(ids, decodeEnvelope(t, w).ID)
	}
	if w := get(s, "/v1/compile/"+ids[0]); w.Code != http.StatusNotFound {
		t.Fatalf("evicted job: status = %d, want 404", w.Code)
	}
	for _, id := range ids[1:] {
		if w := get(s, "/v1/compile/"+id); w.Code != http.StatusOK {
			t.Fatalf("retained job %s: status = %d", id, w.Code)
		}
	}
}
