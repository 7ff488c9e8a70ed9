package main

// Exit-code contract for the run-diff gate and the promcheck mode —
// including the acceptance scenario from ISSUE 10: diffing a doctored
// bench JSON against its baseline exits non-zero under -fail-on.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"epoc/internal/report"
)

func writeArtifact(t *testing.T, dir, name string, latency float64) string {
	t.Helper()
	a := &report.BenchArtifact{
		Version: report.ManifestVersion, Suite: "small", Strategy: "epoc",
		ConfigFingerprint: "fp0",
		Circuits: []report.CircuitResult{
			{Name: "ghz", Metrics: map[string]float64{"latency_ns": latency, "fidelity": 0.99}},
		},
	}
	b, err := report.EncodeArtifact(a)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDiffGateExitCodes(t *testing.T) {
	dir := t.TempDir()
	base := writeArtifact(t, dir, "base.json", 100)
	doctored := writeArtifact(t, dir, "doctored.json", 150) // +50% latency

	var out, errb bytes.Buffer
	// No gate: render the table, exit 0.
	if code := run([]string{base, doctored}, &out, &errb); code != 0 {
		t.Fatalf("plain diff exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "latency_ns") || !strings.Contains(out.String(), "+50.00%") {
		t.Fatalf("diff table:\n%s", out.String())
	}

	// Gate on the regression: exit 1 with the violation on stderr.
	out.Reset()
	errb.Reset()
	if code := run([]string{"-fail-on", "latency_ns=2%", base, doctored}, &out, &errb); code != 1 {
		t.Fatalf("gated diff exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "latency_ns worsened") {
		t.Fatalf("violation message: %s", errb.String())
	}

	// Same gate, movement within slack: exit 0.
	out.Reset()
	errb.Reset()
	if code := run([]string{"-fail-on", "latency_ns=60%", base, doctored}, &out, &errb); code != 0 {
		t.Fatalf("slack diff exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "fail-on: ok") {
		t.Fatalf("ok line missing:\n%s", out.String())
	}
}

func TestUsageAndLoadErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"one.json"}, &out, &errb); code != 2 {
		t.Fatalf("one-arg exit %d, want 2", code)
	}
	if code := run([]string{"-fail-on", "latency_ns=???", "a", "b"}, &out, &errb); code != 2 {
		t.Fatalf("bad fail-on exit %d, want 2", code)
	}
	if code := run([]string{"/nonexistent/a.json", "/nonexistent/b.json"}, &out, &errb); code != 2 {
		t.Fatalf("missing file exit %d, want 2", code)
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"foo": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	good := writeArtifact(t, dir, "good.json", 100)
	if code := run([]string{good, bad}, &out, &errb); code != 2 {
		t.Fatalf("unrecognized artifact exit %d, want 2", code)
	}

	// -promcheck validates one scrape; a -fail-on there would gate nothing.
	scrape := filepath.Join(dir, "scrape.prom")
	if err := os.WriteFile(scrape, []byte(validScrape), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-promcheck", "-fail-on", "latency_ns=0", scrape}, &out, &errb); code != 2 {
		t.Fatalf("-promcheck with -fail-on exit %d, want 2", code)
	}
}

// parentManifest is a run manifest in the format written before the
// obs series and the trace summary were dropped: it still carries
// "trace", obs "series" and "samples_dropped". %g is the latency.
const parentManifest = `{
  "version": 1,
  "circuit": "ghz",
  "strategy": "epoc",
  "config": {"mode": "full", "workers": "1"},
  "config_fingerprint": "fp0",
  "metrics": {"latency_ns": %g, "fidelity": 0.99},
  "obs": {
    "counters": {"library/hits": 5, "library/misses": 2, "qoc/duration_probes": 4},
    "series": {"qoc/grape/fidelity": [0.31, 0.74], "qoc/probe_slots": [58, 30]},
    "samples_dropped": 3
  },
  "trace": {"spans": 2, "by_name": {"compile": {"count": 1, "total_ns": 9, "min_ns": 9, "max_ns": 9}}}
}
`

// TestParentManifestCompat pins that manifests written before the
// series and the trace summary were dropped still decode at the same
// ManifestVersion, and still diff and gate under epoc-stats.
func TestParentManifestCompat(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, latency float64) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(fmt.Sprintf(parentManifest, latency)), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, cur := write("base.json", 100), write("cur.json", 150)

	m, err := report.DecodeManifest([]byte(fmt.Sprintf(parentManifest, 100.0)))
	if err != nil {
		t.Fatalf("parent manifest does not decode: %v", err)
	}
	if m.Circuit != "ghz" || m.Metrics["latency_ns"] != 100 || m.Obs.Counters["library/hits"] != 5 {
		t.Fatalf("parent manifest decoded as %+v", m)
	}

	var out, errb bytes.Buffer
	if code := run([]string{base, cur}, &out, &errb); code != 0 {
		t.Fatalf("diff exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"latency_ns", "+50.00%", "library_hit_rate"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("diff table missing %q:\n%s", want, out.String())
		}
	}
	if code := run([]string{"-fail-on", "latency_ns=2%", base, cur}, &out, &errb); code != 1 {
		t.Fatalf("gated diff exit %d, want 1", code)
	}
}

const validScrape = `# HELP epoc_serve_requests_total Total compile requests.
# TYPE epoc_serve_requests_total counter
epoc_serve_requests_total 3
# HELP epoc_stage_seconds Stage wall time in seconds.
# TYPE epoc_stage_seconds histogram
epoc_stage_seconds_bucket{stage="qoc",le="1e-06"} 0
epoc_stage_seconds_bucket{stage="qoc",le="+Inf"} 2
epoc_stage_seconds_sum{stage="qoc"} 0.5
epoc_stage_seconds_count{stage="qoc"} 2
`

func TestPromcheck(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.prom")
	if err := os.WriteFile(good, []byte(validScrape), 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errb bytes.Buffer
	if code := run([]string{"-promcheck", good}, &out, &errb); code != 0 {
		t.Fatalf("promcheck exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "promcheck: ok") {
		t.Fatalf("promcheck output: %s", out.String())
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-promcheck", "-require", "epoc_stage_seconds,epoc_serve_queue_depth", good}, &out, &errb); code != 1 {
		t.Fatalf("missing-family exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "epoc_serve_queue_depth") {
		t.Fatalf("missing-family message: %s", errb.String())
	}

	// Malformed exposition (counter without _total suffix) must fail.
	badScrape := strings.ReplaceAll(validScrape, "epoc_serve_requests_total", "epoc_serve_requests")
	badPath := filepath.Join(dir, "bad.prom")
	if err := os.WriteFile(badPath, []byte(badScrape), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-promcheck", badPath}, &out, &errb); code != 1 {
		t.Fatalf("malformed scrape exit %d, want 1", code)
	}

	if code := run([]string{"-promcheck"}, &out, &errb); code != 2 {
		t.Fatalf("promcheck no-arg exit %d, want 2", code)
	}
	if code := run([]string{"-require", "x", "a.json", "b.json"}, &out, &errb); code != 2 {
		t.Fatalf("stray -require exit %d, want 2", code)
	}
}
