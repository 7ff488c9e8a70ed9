package main

import (
	"io"
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); !near(got, tc.want) {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// TestQuantilesMatchPython pins the quartile rule to the values
// Python's statistics.quantiles gives for the same data, the rule the
// run-to-run spread of the printed results is judged by.
func TestQuantilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		groups int
		want   []float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 4, []float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, 4, []float64{1, 2, 3}},
		{[]float64{5, 1}, 4, []float64{0, 3, 6}},
	} {
		got := quantiles(tc.xs, tc.groups)
		if len(got) != len(tc.want) {
			t.Fatalf("quantiles(%v, %d) = %v, want %v", tc.xs, tc.groups, got, tc.want)
		}
		for i := range got {
			if !near(got[i], tc.want[i]) {
				t.Errorf("quantiles(%v, %d) = %v, want %v", tc.xs, tc.groups, got, tc.want)
			}
		}
	}
	if q := quantiles([]float64{1}, 4); q != nil {
		t.Errorf("quantiles of one sample = %v, want nil", q)
	}
}

// TestPercentileNeedsTenBeyond checks the reporting rule: a percentile
// is reported only with at least ten samples above it.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 0, 100)
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	if v, ok := percentile(xs, 90); !ok || !near(v, 90.9) {
		t.Errorf("p90 of 1..100 = %v, %v; want 90.9, true", v, ok)
	}
	if _, ok := percentile(xs[:99], 90); ok {
		t.Error("p90 of 99 samples has 9.9 beyond it and must be withheld")
	}
	if _, ok := percentile(xs, 95); ok {
		t.Error("p95 of 100 samples has 5 beyond it and must be withheld")
	}
	if v, ok := percentile(xs[:20], 50); !ok || !near(v, 10.5) {
		t.Errorf("p50 of 20 samples = %v, %v; want 10.5, true", v, ok)
	}
	if v := reportedPercentile(xs[:50], 90); v != 0 {
		t.Errorf("withheld percentile reported as %v, want 0", v)
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{1, 4, 16}); !near(g, 4) {
		t.Errorf("geomean(1,4,16) = %v, want 4", g)
	}
	if g := geomean([]float64{2, 0, 8}); g != 0 {
		t.Errorf("geomean with a zero = %v, want 0", g)
	}
	if g := geomean(nil); g != 0 {
		t.Errorf("geomean() = %v, want 0", g)
	}
}

// TestTallyAccounting: every operation counts once in attempted, and a
// failed one once in failed, whatever else it missed.
func TestTallyAccounting(t *testing.T) {
	var a tally
	if a.failedRatio() != 0 || a.okRatio() != 0 {
		t.Errorf("empty tally ratios = %v, %v; want 0, 0", a.failedRatio(), a.okRatio())
	}
	for _, ok := range []bool{true, false, true, true, false} {
		a.record(ok)
	}
	if a.attempted != 5 || a.failed != 2 {
		t.Fatalf("tally = %+v, want 5 attempted, 2 failed", a)
	}
	if !near(a.failedRatio(), 0.4) || !near(a.okRatio(), 0.6) {
		t.Errorf("ratios = %v, %v; want 0.4, 0.6", a.failedRatio(), a.okRatio())
	}
}

// TestReportExitCode: a run with a defect or a failed operation prints
// correct=false and exits non-zero.
func TestReportExitCode(t *testing.T) {
	for _, tc := range []struct {
		ops     tally
		defects []string
		want    int
	}{
		{tally{attempted: 3}, nil, 0},
		{tally{attempted: 3, failed: 1}, nil, 1},
		{tally{attempted: 3}, []string{"drift"}, 1},
		{tally{}, nil, 1},
	} {
		r := newRun()
		r.ops, r.defects = tc.ops, tc.defects
		if got := report(io.Discard, r); got != tc.want {
			t.Errorf("report(%+v, %v) = %d, want %d", tc.ops, tc.defects, got, tc.want)
		}
	}
}
