package serve

// Telemetry suite: the Prometheus endpoint under concurrent load and
// the access-log ↔ trace-header correlation contract from ISSUE 10.
// Every /metrics body is run through the package's own strict parser,
// so a format regression fails here before any external scraper sees
// it.

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"epoc/internal/circuit"
	"epoc/internal/core"
	"epoc/internal/logx"
	"epoc/internal/metrics"
)

// parseMetrics scrapes GET /metrics and strict-parses the body,
// returning families keyed by name.
func parseMetrics(t *testing.T, s *Server) map[string]metrics.Family {
	t.Helper()
	w := get(s, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != metrics.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, metrics.ContentType)
	}
	fams, err := metrics.Parse(w.Body.String())
	if err != nil {
		t.Fatalf("strict parse of /metrics failed: %v\nbody:\n%s", err, w.Body.String())
	}
	byName := make(map[string]metrics.Family, len(fams))
	for _, f := range fams {
		byName[f.Name] = f
	}
	return byName
}

// TestMetricsEndpoint pins what a scrape of a live server exposes:
// serve counters, the queue/inflight gauge set, the queue-wait and
// compile-time distributions, and — via the per-job recorder merge —
// the pipeline's stage histograms.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1},
		func(ctx context.Context, c *circuit.Circuit, opts core.Options) (*core.Result, error) {
			// Stand in for the pipeline's stage spans: the per-job
			// recorder must surface in the server-wide scrape.
			sp := opts.Obs.Span("stage/qoc")
			sp.End()
			return okResult(), nil
		})

	for i := 0; i < 3; i++ {
		if w := post(s, `{"circuit":"ghz"}`, nil); w.Code != http.StatusOK {
			t.Fatalf("compile %d: %d %s", i, w.Code, w.Body.String())
		}
	}

	fams := parseMetrics(t, s)
	for _, want := range []string{
		"epoc_serve_requests_total",
		"epoc_serve_accepted_total",
		"epoc_serve_queue_depth",
		"epoc_serve_queue_capacity",
		"epoc_serve_inflight",
		"epoc_serve_workers",
		"epoc_serve_avg_compile_ms",
		"epoc_serve_draining",
		"epoc_serve_queue_ms",
		"epoc_serve_compile_ms",
		"epoc_stage_seconds",
	} {
		if _, ok := fams[want]; !ok {
			t.Errorf("scrape missing family %s", want)
		}
	}
	if f, ok := fams["epoc_stage_seconds"]; ok {
		found := false
		for _, sm := range f.Samples {
			if sm.Labels["stage"] == "qoc" {
				found = true
			}
		}
		if !found {
			t.Errorf("epoc_stage_seconds has no stage=\"qoc\" series: %+v", f.Samples)
		}
	}
}

// TestScrapeWhileCompiling hammers /metrics and /v1/stats while
// compiles are queued and in flight; with -race this doubles as the
// data-race check on the recorder merge, the gauges and the EWMA.
func TestScrapeWhileCompiling(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 8},
		func(ctx context.Context, c *circuit.Circuit, opts core.Options) (*core.Result, error) {
			started <- struct{}{}
			<-release
			return okResult(), nil
		})

	const jobs = 4
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			post(s, `{"circuit":"ghz"}`, nil)
		}()
	}
	// Both workers are inside the stub before any scrape runs.
	<-started
	<-started

	var scrapers sync.WaitGroup
	for i := 0; i < 4; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for n := 0; n < 25; n++ {
				w := get(s, "/metrics")
				if _, err := metrics.Parse(w.Body.String()); err != nil {
					t.Errorf("scrape %d invalid: %v", n, err)
					return
				}
				if w := get(s, "/v1/stats"); w.Code != http.StatusOK {
					t.Errorf("stats scrape: %d", w.Code)
					return
				}
			}
		}()
	}
	scrapers.Wait()

	// With both workers parked in the stub, the inflight gauge and
	// /v1/stats must agree on 2.
	fams := parseMetrics(t, s)
	if f, ok := fams["epoc_serve_inflight"]; !ok || len(f.Samples) != 1 || f.Samples[0].Value != 2 {
		t.Errorf("epoc_serve_inflight while 2 compiles run: %+v", f)
	}
	var stats StatsResponse
	if err := json.Unmarshal(get(s, "/v1/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Queue.Inflight != 2 {
		t.Errorf("stats inflight = %d, want 2", stats.Queue.Inflight)
	}

	close(release)
	wg.Wait()
}

// syncBuffer makes a bytes.Buffer safe for the server's concurrent
// log writers (request goroutines and compile workers).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) records(t *testing.T) []map[string]any {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []map[string]any
	dec := json.NewDecoder(bytes.NewReader(b.buf.Bytes()))
	for dec.More() {
		var m map[string]any
		if err := dec.Decode(&m); err != nil {
			t.Fatalf("log line not JSON: %v", err)
		}
		out = append(out, m)
	}
	return out
}

// TestAccessLogTraceCorrelation pins the acceptance criterion: every
// access-log line carries the same trace ID the response header does,
// whether the caller supplied one or the server minted it, and the
// job-lifecycle records share it too — on the real pipeline, so do
// the stage and compile records, none of which carries a span ID.
func TestAccessLogTraceCorrelation(t *testing.T) {
	buf := &syncBuffer{}
	s := newTestServer(t, Config{Workers: 1, Log: logx.New(buf, slog.LevelInfo)},
		func(ctx context.Context, c *circuit.Circuit, opts core.Options) (*core.Result, error) {
			return okResult(), nil
		})

	w := post(s, `{"circuit":"ghz"}`, map[string]string{TraceIDHeader: "caller-trace.07"})
	if w.Code != http.StatusOK {
		t.Fatalf("compile: %d %s", w.Code, w.Body.String())
	}
	hdr := w.Header().Get(TraceIDHeader)
	if hdr != "caller-trace.07" {
		t.Fatalf("response header trace = %q", hdr)
	}
	// A minted-trace request (no inbound header) and a plain read.
	w2 := post(s, `{"circuit":"ghz"}`, nil)
	hdr2 := w2.Header().Get(TraceIDHeader)
	if hdr2 == "" {
		t.Fatal("minted trace header empty")
	}
	wStats := get(s, "/v1/stats")
	statsTrace := wStats.Header().Get(TraceIDHeader)
	if statsTrace == "" {
		t.Fatal("stats response has no trace header")
	}

	recs := buf.records(t)
	var accessSeen int
	byTrace := map[string][]map[string]any{}
	for _, m := range recs {
		tid, _ := m["trace_id"].(string)
		if tid == "" {
			t.Fatalf("log record without trace_id: %v", m)
		}
		byTrace[tid] = append(byTrace[tid], m)
		if m["msg"] == "request" {
			accessSeen++
		}
	}
	if accessSeen != 3 {
		t.Fatalf("expected 3 access records, saw %d: %v", accessSeen, recs)
	}
	for _, want := range []string{hdr, hdr2, statsTrace} {
		found := false
		for _, m := range byTrace[want] {
			if m["msg"] == "request" {
				found = true
			}
		}
		if !found {
			t.Errorf("no access record carries trace %q (response header value)", want)
		}
	}
	// Compile requests also log the queue/compile split and the job
	// lifecycle under the same trace.
	var sawSplit, sawJobDone bool
	for _, m := range byTrace[hdr] {
		if m["msg"] == "request" {
			if _, ok := m["queue_ms"].(float64); ok {
				sawSplit = true
			}
			if m["path"] != "/v1/compile" || m["status"] != float64(http.StatusOK) {
				t.Errorf("access record fields: %v", m)
			}
		}
		if m["msg"] == "job done" {
			sawJobDone = true
			if _, ok := m["compile_ms"].(float64); !ok {
				t.Errorf("job done without compile_ms: %v", m)
			}
		}
	}
	if !sawSplit {
		t.Errorf("compile access record missing queue_ms/compile_ms split: %v", byTrace[hdr])
	}
	if !sawJobDone {
		t.Errorf("no 'job done' record under trace %q: %v", hdr, byTrace[hdr])
	}

	// The real pipeline: an estimate-mode compile's stage and compile
	// records carry the request's trace ID too, and no record carries
	// a span ID.
	rbuf := &syncBuffer{}
	rs := newTestServer(t, Config{Workers: 1, Log: logx.New(rbuf, slog.LevelInfo)}, nil)
	wr := post(rs, `{"circuit":"ghz","options":{"mode":"estimate","seed":1}}`, nil)
	if wr.Code != http.StatusOK {
		t.Fatalf("real compile: %d %s", wr.Code, wr.Body.String())
	}
	rhdr := wr.Header().Get(TraceIDHeader)
	msgs := map[string]int{}
	for _, m := range rbuf.records(t) {
		if m["trace_id"] != rhdr {
			t.Errorf("record trace_id %v, response header %q: %v", m["trace_id"], rhdr, m)
		}
		if _, ok := m["span"]; ok {
			t.Errorf("record carries a span ID: %v", m)
		}
		msg, _ := m["msg"].(string)
		msgs[msg]++
	}
	for _, want := range []string{"request", "job start", "stage start", "stage done", "compile done", "job done"} {
		if msgs[want] == 0 {
			t.Errorf("no %q record in the real compile's log: %v", want, msgs)
		}
	}
}

// TestMetricsMethodNotAllowed: the exposition endpoint is read-only.
func TestMetricsMethodNotAllowed(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1}, func(ctx context.Context, c *circuit.Circuit, opts core.Options) (*core.Result, error) {
		return okResult(), nil
	})
	req := httptest.NewRequest(http.MethodDelete, "/metrics", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /metrics: %d, want 405", w.Code)
	}
}
