package main

// The -suite flag contract and the -baseline gate: every committed
// baseline passes against itself, and each planted regression fails
// with the offending row named.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"epoc/internal/core"
	"epoc/internal/report"
)

func TestSuiteOnlyFlagsNeedSuite(t *testing.T) {
	for _, tc := range []struct {
		suite, json, baseline, store string
		ok                           bool
	}{
		{ok: true},
		{suite: "small", json: "out", baseline: "b.json", store: "st", ok: true},
		{json: "out"},
		{baseline: "b.json"},
		{store: "st"},
	} {
		err := checkSuiteFlags(tc.suite, tc.json, tc.baseline, tc.store)
		if (err == nil) != tc.ok {
			t.Errorf("checkSuiteFlags(%q, %q, %q, %q) = %v, want ok=%v",
				tc.suite, tc.json, tc.baseline, tc.store, err, tc.ok)
		}
	}
}

// TestBenchGatePolicyCoversMetrics makes every result metric choose:
// gated by a BenchGatePolicy rule, or listed here as informational.
func TestBenchGatePolicyCoversMetrics(t *testing.T) {
	rules, err := report.ParseFailOn(report.BenchGatePolicy)
	if err != nil {
		t.Fatal(err)
	}
	informational := map[string]bool{"compile_time_ns": true}
	ruled := map[string]bool{}
	for _, r := range rules {
		if informational[r.Metric] {
			t.Errorf("%s is both ruled and informational", r.Metric)
		}
		ruled[r.Metric] = true
	}
	metrics := (&core.Result{}).MetricMap()
	// Full-mode suites add the stage-5 work counts (runSuite).
	metrics["qoc_probes"], metrics["grape_iters"] = 0, 0
	for m := range metrics {
		if !ruled[m] && !informational[m] {
			t.Errorf("metric %s is neither gated by BenchGatePolicy nor informational", m)
		}
	}
	for m := range ruled {
		if _, ok := metrics[m]; !ok {
			t.Errorf("BenchGatePolicy rules %s, which no suite emits", m)
		}
	}
}

func loadBaseline(t *testing.T, path string) *report.BenchArtifact {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	a, err := report.DecodeArtifact(raw)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestBaselineGate(t *testing.T) {
	paths, err := filepath.Glob("../../bench/baseline/BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed baselines: %v", err)
	}
	plantings := []struct {
		name  string
		plant func(a *report.BenchArtifact)
		want  string // in the violation
	}{
		{"latency +1 ns", func(a *report.BenchArtifact) { a.Circuits[0].Metrics["latency_ns"]++ }, "latency_ns worsened"},
		{"fidelity drop", func(a *report.BenchArtifact) { a.Circuits[0].Metrics["fidelity"] -= 1e-12 }, "fidelity worsened"},
		{"pulses +1", func(a *report.BenchArtifact) { a.Circuits[0].Metrics["pulses"]++ }, "pulses worsened"},
		{"removed circuit", func(a *report.BenchArtifact) { a.Circuits = a.Circuits[1:] }, "missing from current"},
		{"removed metric", func(a *report.BenchArtifact) { delete(a.Circuits[0].Metrics, "cnots") }, "cnots present in baseline but missing"},
		{"changed fingerprint", func(a *report.BenchArtifact) { a.ConfigFingerprint = "0000" }, "config fingerprint differs"},
		{"changed suite", func(a *report.BenchArtifact) { a.Suite = "other" }, "suite differs"},
	}
	for _, path := range paths {
		var out, errb bytes.Buffer
		if code := gateBaseline(loadBaseline(t, path), path, &out, &errb); code != 0 {
			t.Fatalf("%s against itself: exit %d\n%s", path, code, errb.String())
		}
		if !strings.Contains(out.String(), "run diff:") || !strings.Contains(out.String(), "baseline check passed") {
			t.Fatalf("%s: clean gate output:\n%s", path, out.String())
		}
		for _, p := range plantings {
			cur := loadBaseline(t, path)
			p.plant(cur)
			out.Reset()
			errb.Reset()
			if code := gateBaseline(cur, path, &out, &errb); code != 1 {
				t.Errorf("%s, %s: exit %d, want 1", filepath.Base(path), p.name, code)
				continue
			}
			if !strings.Contains(errb.String(), p.want) {
				t.Errorf("%s, %s: violation does not say %q:\n%s", filepath.Base(path), p.name, p.want, errb.String())
			}
			if !strings.Contains(out.String(), "run diff:") {
				t.Errorf("%s, %s: no diff table printed", filepath.Base(path), p.name)
			}
		}
	}
}

// TestBaselineGateQOCTime pins the one mode-dependent rule: qoc_time_ns
// gates warm-store runs, and is informational for cold full-mode runs,
// whose stage-5 time is GRAPE wall clock.
func TestBaselineGateQOCTime(t *testing.T) {
	for _, tc := range []struct {
		path string
		want int
	}{
		{"../../bench/baseline/BENCH_small_warm.json", 1},
		{"../../bench/baseline/BENCH_grape.json", 0},
	} {
		cur := loadBaseline(t, tc.path)
		cur.Circuits[0].Metrics["qoc_time_ns"] += 1e9
		var out, errb bytes.Buffer
		if code := gateBaseline(cur, tc.path, &out, &errb); code != tc.want {
			t.Errorf("%s: qoc_time_ns +1 s exit %d, want %d\n%s", tc.path, code, tc.want, errb.String())
		}
	}
}

func TestBaselineGateRejectsNonBench(t *testing.T) {
	dir := t.TempDir()
	stats := filepath.Join(dir, "stats.json")
	if err := os.WriteFile(stats, []byte(`{"queue": {"len": 0}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cur := loadBaseline(t, "../../bench/baseline/BENCH_small.json")
	var out, errb bytes.Buffer
	for _, path := range []string{stats, filepath.Join(dir, "missing.json")} {
		if code := gateBaseline(cur, path, &out, &errb); code != 1 {
			t.Errorf("baseline %s: exit %d, want 1", path, code)
		}
	}
}
