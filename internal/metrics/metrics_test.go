package metrics

import (
	"flag"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"epoc/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenSnapshot builds a snapshot as a struct literal — never from
// real recorded durations — so the rendered bytes are deterministic.
func goldenSnapshot() *obs.Snapshot {
	zxBuckets := obs.Hist{}
	zxBuckets[6] = 2 // two spans in (1.024ms, 4.096ms]
	zxBuckets[obs.NumBuckets] = 1
	synthBuckets := obs.Hist{}
	synthBuckets[10] = 1
	distBuckets := obs.Hist{}
	distBuckets[14] = 3 // iteration counts ~120 land under bound 4^14*1e-6 = 268.4

	return &obs.Snapshot{
		Counters: map[string]int64{
			"synthcache/hit":    7,
			"synthcache/miss":   2,
			"library/hits":      12,
			"library/misses":    3,
			"store/warm/pulses": 0,
			"serve/requests":    4,
		},
		Timers: map[string]obs.TimerStats{
			"stage/zx": {
				Count:   3,
				Total:   10 * time.Millisecond,
				Min:     2 * time.Millisecond,
				Max:     5 * time.Millisecond,
				Buckets: zxBuckets,
			},
			"stage/synth": {
				Count:   1,
				Total:   250 * time.Millisecond,
				Min:     250 * time.Millisecond,
				Max:     250 * time.Millisecond,
				Buckets: synthBuckets,
			},
			"compile": {
				Count:   1,
				Total:   260 * time.Millisecond,
				Min:     260 * time.Millisecond,
				Max:     260 * time.Millisecond,
				Buckets: synthBuckets,
			},
		},
		Dists: map[string]obs.DistStats{
			"qoc/grape/iterations": {
				Count:   3,
				Sum:     360,
				Min:     100,
				Max:     140,
				Buckets: distBuckets,
			},
		},
	}
}

func goldenGauges() []Gauge {
	return []Gauge{
		{Name: "epoc_serve_queue_depth", Help: "Jobs waiting in the admission queue.", Value: 3},
		{Name: "epoc_serve_inflight", Help: "Jobs currently compiling.", Value: 2},
		{Name: "epoc_serve_avg_compile_ms", Help: "EWMA of compile wall time in milliseconds.", Value: 41.5},
		{Name: "epoc_build_info", Help: "Build metadata.", Labels: map[string]string{"module": `epoc "quoted\path"`}, Value: 1},
	}
}

func TestRenderGolden(t *testing.T) {
	var b strings.Builder
	if err := Render(&b, goldenSnapshot(), goldenGauges()); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	const path = "testdata/golden.prom"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("exposition drifted from golden file; run with -update if intended.\ngot:\n%s", got)
	}
	// The golden exposition must itself satisfy the strict parser.
	if _, err := Parse(got); err != nil {
		t.Fatalf("golden exposition rejected by strict parser: %v", err)
	}
}

// TestRenamesStrictParse renders a counter for every promRenames key
// and strict-parses the result, so a rename that breaks the naming
// scheme fails here even when the golden snapshot does not carry it.
func TestRenamesStrictParse(t *testing.T) {
	snap := &obs.Snapshot{Counters: map[string]int64{}}
	for obsName := range promRenames {
		snap.Counters[obsName] = 1
	}
	var b strings.Builder
	if err := Render(&b, snap, nil); err != nil {
		t.Fatal(err)
	}
	fams, err := Parse(b.String())
	if err != nil {
		t.Fatalf("rename table renders an exposition the strict parser rejects: %v\n%s", err, b.String())
	}
	got := map[string]bool{}
	for _, f := range fams {
		got[f.Name] = true
	}
	for obsName, name := range promRenames {
		if !got[name] {
			t.Errorf("counter %s did not render as family %s", obsName, name)
		}
	}
}

func TestRenderDeterministic(t *testing.T) {
	var a, b strings.Builder
	if err := Render(&a, goldenSnapshot(), goldenGauges()); err != nil {
		t.Fatal(err)
	}
	if err := Render(&b, goldenSnapshot(), goldenGauges()); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("Render is not deterministic for identical input")
	}
}

func TestRenderedHistogramSemantics(t *testing.T) {
	var b strings.Builder
	if err := Render(&b, goldenSnapshot(), nil); err != nil {
		t.Fatal(err)
	}
	fams, err := Parse(b.String())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}

	stage, ok := byName["epoc_stage_seconds"]
	if !ok || stage.Type != "histogram" {
		t.Fatalf("missing epoc_stage_seconds histogram; families: %v", names(fams))
	}
	// Both stages appear as labels of ONE family.
	stages := map[string]bool{}
	for _, s := range stage.Samples {
		if v, ok := s.Labels["stage"]; ok {
			stages[v] = true
		}
	}
	if !stages["zx"] || !stages["synth"] {
		t.Fatalf("stage labels: %v", stages)
	}

	if f := byName["epoc_synthcache_hits_total"]; f.Type != "counter" || f.Samples[0].Value != 7 {
		t.Fatalf("synthcache hits: %+v", f)
	}
	if f := byName["epoc_store_warm_pulses_total"]; f.Type != "counter" || f.Samples[0].Value != 0 {
		t.Fatalf("store warm pulses: %+v", f)
	}
	if f := byName["epoc_qoc_grape_iterations"]; f.Type != "histogram" {
		t.Fatalf("dist histogram: %+v", f)
	}
	if f := byName["epoc_compile_seconds"]; f.Type != "histogram" {
		t.Fatalf("plain timer histogram: %+v", f)
	}
}

func names(fams []Family) []string {
	out := make([]string, len(fams))
	for i, f := range fams {
		out[i] = f.Name
	}
	return out
}

func TestCounterName(t *testing.T) {
	cases := map[string]string{
		"synthcache/hit":          "epoc_synthcache_hits_total",
		"library/misses":          "epoc_library_misses_total",
		"store/warm/pulses":       "epoc_store_warm_pulses_total",
		"serve/rejected/draining": "epoc_serve_rejected_draining_total",
		"qoc/runs":                "epoc_qoc_runs_total",
	}
	for in, want := range cases {
		if got := CounterName(in); got != want {
			t.Errorf("CounterName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSanitize(t *testing.T) {
	cases := map[string]string{
		"stage/zx":        "epoc_stage_zx",
		"serve/queue_ms":  "epoc_serve_queue_ms",
		"Weird--Name!!x":  "epoc_weird_name_x",
		"trailing/":       "epoc_trailing",
		"a//b":            "epoc_a_b",
		"UPPER/lower/123": "epoc_upper_lower_123",
	}
	for in, want := range cases {
		if got := sanitize(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	var b strings.Builder
	g := []Gauge{{
		Name:   "epoc_test_gauge",
		Help:   "escaping test.",
		Labels: map[string]string{"k": "a\\b\"c\nd"},
		Value:  1,
	}}
	if err := Render(&b, nil, g); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `k="a\\b\"c\nd"`) {
		t.Fatalf("label escaping wrong:\n%s", out)
	}
	fams, err := Parse(out)
	if err != nil {
		t.Fatal(err)
	}
	if got := fams[0].Samples[0].Labels["k"]; got != "a\\b\"c\nd" {
		t.Fatalf("round-tripped label = %q", got)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no trailing newline":    "# HELP epoc_x_total h\n# TYPE epoc_x_total counter\nepoc_x_total 1",
		"sample before HELP":     "epoc_x_total 1\n",
		"TYPE without HELP":      "# TYPE epoc_x_total counter\nepoc_x_total 1\n",
		"bad name prefix":        "# HELP my_metric h\n# TYPE my_metric counter\nmy_metric 1\n",
		"double underscore":      "# HELP epoc_a__b_total h\n# TYPE epoc_a__b_total counter\nepoc_a__b_total 1\n",
		"counter without _total": "# HELP epoc_x h\n# TYPE epoc_x counter\nepoc_x 1\n",
		"gauge with _total":      "# HELP epoc_g_total h\n# TYPE epoc_g_total gauge\nepoc_g_total 1\n",
		"negative counter":       "# HELP epoc_x_total h\n# TYPE epoc_x_total counter\nepoc_x_total -1\n",
		"duplicate series":       "# HELP epoc_x_total h\n# TYPE epoc_x_total counter\nepoc_x_total 1\nepoc_x_total 2\n",
		"duplicate family": "# HELP epoc_x_total h\n# TYPE epoc_x_total counter\nepoc_x_total 1\n" +
			"# HELP epoc_x_total h\n# TYPE epoc_x_total counter\nepoc_x_total 2\n",
		"histogram missing +Inf": "# HELP epoc_h h\n# TYPE epoc_h histogram\n" +
			"epoc_h_bucket{le=\"1\"} 1\nepoc_h_sum 1\nepoc_h_count 1\n",
		"histogram non-ascending le": "# HELP epoc_h h\n# TYPE epoc_h histogram\n" +
			"epoc_h_bucket{le=\"2\"} 1\nepoc_h_bucket{le=\"1\"} 1\n" +
			"epoc_h_bucket{le=\"+Inf\"} 1\nepoc_h_sum 1\nepoc_h_count 1\n",
		"histogram non-monotone buckets": "# HELP epoc_h h\n# TYPE epoc_h histogram\n" +
			"epoc_h_bucket{le=\"1\"} 5\nepoc_h_bucket{le=\"2\"} 3\n" +
			"epoc_h_bucket{le=\"+Inf\"} 5\nepoc_h_sum 1\nepoc_h_count 5\n",
		"histogram +Inf != count": "# HELP epoc_h h\n# TYPE epoc_h histogram\n" +
			"epoc_h_bucket{le=\"1\"} 1\nepoc_h_bucket{le=\"+Inf\"} 2\n" +
			"epoc_h_sum 1\nepoc_h_count 3\n",
		"histogram missing sum": "# HELP epoc_h h\n# TYPE epoc_h histogram\n" +
			"epoc_h_bucket{le=\"+Inf\"} 1\nepoc_h_count 1\n",
		"unterminated label": "# HELP epoc_g h\n# TYPE epoc_g gauge\nepoc_g{k=\"v 1\n",
		"bad escape":         "# HELP epoc_g h\n# TYPE epoc_g gauge\nepoc_g{k=\"\\t\"} 1\n",
		"unsupported type":   "# HELP epoc_g h\n# TYPE epoc_g summary\nepoc_g 1\n",
		"blank line":         "# HELP epoc_g h\n# TYPE epoc_g gauge\n\nepoc_g 1\n",
		"trailing timestamp": "# HELP epoc_g h\n# TYPE epoc_g gauge\nepoc_g 1 1234\n",
	}
	for name, text := range cases {
		if _, err := Parse(text); err == nil {
			t.Errorf("%s: Parse accepted malformed input", name)
		}
	}
}

func TestParseAcceptsValid(t *testing.T) {
	text := "# HELP epoc_g h\n# TYPE epoc_g gauge\nepoc_g{a=\"x\",b=\"y\"} 1.5\nepoc_g{a=\"z\"} 2\n"
	fams, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 1 || len(fams[0].Samples) != 2 {
		t.Fatalf("parsed: %+v", fams)
	}
}

func TestHandler(t *testing.T) {
	r := obs.New()
	r.Add("synthcache/hit", 1)
	r.Span("stage/zx").End()
	h := Handler(r.Snapshot, func() []Gauge {
		return []Gauge{{Name: "epoc_serve_queue_depth", Help: "queue depth.", Value: 0}}
	})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != ContentType {
		t.Fatalf("content type %q", ct)
	}
	fams, err := Parse(rec.Body.String())
	if err != nil {
		t.Fatalf("live handler output rejected: %v\n%s", err, rec.Body.String())
	}
	if len(fams) < 3 {
		t.Fatalf("families: %v", names(fams))
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/metrics", nil))
	if rec.Code != 405 {
		t.Fatalf("POST status %d, want 405", rec.Code)
	}
}

func TestHandlerNilFuncs(t *testing.T) {
	h := Handler(nil, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if rec.Body.Len() != 0 {
		t.Fatalf("empty snapshot should render empty exposition, got %q", rec.Body.String())
	}
}
