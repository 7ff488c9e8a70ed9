package report

import (
	"strings"
	"testing"

	"epoc/internal/obs"
)

func benchJSON(t *testing.T, latency float64) []byte {
	t.Helper()
	a := &BenchArtifact{
		Version: ManifestVersion, Suite: "small", Strategy: "epoc",
		ConfigFingerprint: "fp0",
		Circuits: []CircuitResult{
			{Name: "ghz", Metrics: map[string]float64{"latency_ns": latency, "fidelity": 0.99, "qoc_runs": 4}},
			{Name: "qft", Metrics: map[string]float64{"latency_ns": 2 * latency, "fidelity": 0.98, "qoc_runs": 6}},
		},
	}
	b, err := EncodeArtifact(a)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestLoadRunStatsSniffing(t *testing.T) {
	bench, err := LoadRunStats("base", benchJSON(t, 100))
	if err != nil {
		t.Fatal(err)
	}
	if bench.Source != "bench" || bench.Circuits["ghz"]["latency_ns"] != 100 {
		t.Fatalf("bench load: %+v", bench)
	}

	rec := obs.New()
	rec.Add("synthcache/hit", 3)
	rec.Add("synthcache/miss", 1)
	m := &Manifest{
		Version: ManifestVersion, Circuit: "ghz", Strategy: "epoc",
		Metrics:        map[string]float64{"latency_ns": 100},
		Degraded:       true,
		DegradeReasons: []string{"deadline"},
		Obs:            rec.Snapshot(),
	}
	mb, err := EncodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	man, err := LoadRunStats("m", mb)
	if err != nil {
		t.Fatal(err)
	}
	if man.Source != "manifest" || man.Run["synth_hit_rate"] != 0.75 {
		t.Fatalf("manifest load: %+v", man)
	}
	if len(man.Degraded["ghz"]) != 1 {
		t.Fatalf("manifest degrade reasons: %+v", man.Degraded)
	}

	// A real /v1/stats body carries a "circuits" catalog too — the
	// sniff must still route it to the stats loader (by "queue").
	statsBody := []byte(`{
	  "counters": {"serve/accepted": 10},
	  "cache": {"synth_entries": 2, "synth_hits": 8, "synth_misses": 2,
	            "library_entries": 5, "library_hits": 5, "library_misses": 5},
	  "queue": {"workers": 2, "len": 1, "cap": 16, "inflight": 2, "avg_compile_ms": 12.5},
	  "circuits": ["ghz", "qft"]
	}`)
	st, err := LoadRunStats("live", statsBody)
	if err != nil {
		t.Fatal(err)
	}
	if st.Source != "stats" || st.Run["synth_hit_rate"] != 0.8 || st.Run["inflight"] != 2 {
		t.Fatalf("stats load: %+v", st.Run)
	}
	if st.Run["counter:serve/accepted"] != 10 {
		t.Fatalf("stats counters: %+v", st.Run)
	}

	if _, err := LoadRunStats("x", []byte(`{"foo": 1}`)); err == nil {
		t.Fatal("unrecognized artifact accepted")
	}
}

func TestDiffAndGate(t *testing.T) {
	base, err := LoadRunStats("base", benchJSON(t, 100))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := LoadRunStats("cur", benchJSON(t, 103)) // +3% latency
	if err != nil {
		t.Fatal(err)
	}
	d := DiffRunStats(base, cur)

	var ghzLat *DiffRow
	for i := range d.Rows {
		if d.Rows[i].Scope == "ghz" && d.Rows[i].Metric == "latency_ns" {
			ghzLat = &d.Rows[i]
		}
	}
	if ghzLat == nil || ghzLat.Delta() != 3 {
		t.Fatalf("ghz latency row: %+v", ghzLat)
	}

	out := FormatDiff(d)
	for _, want := range []string{"ghz", "latency_ns", "+3.00%"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff table missing %q:\n%s", want, out)
		}
	}

	// 5% slack passes, 1% fails, absolute 2 fails, absolute 5 passes.
	for _, tc := range []struct {
		spec string
		want int
	}{
		{"latency_ns=5%", 0},
		{"latency_ns=1%", 2}, // both circuits moved 3%
		{"latency_ns=2", 2},  // ghz +3, qft +6
		{"latency_ns=7", 0},  // qft +6 within 7
		{"latency_ns=0,qoc_runs=0", 2},
	} {
		rules, err := ParseFailOn(tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		if got := GateDiff(d, rules); len(got) != tc.want {
			t.Errorf("%s: %d violations (%v), want %d", tc.spec, len(got), got, tc.want)
		}
	}

	// Higher-is-better: a fidelity drop fails, a rise does not.
	worse, _ := LoadRunStats("cur", benchJSON(t, 100))
	worse.Circuits["ghz"]["fidelity"] = 0.90
	rules, _ := ParseFailOn("fidelity=0")
	if v := GateDiff(DiffRunStats(base, worse), rules); len(v) != 1 {
		t.Errorf("fidelity drop: %v", v)
	}
	better, _ := LoadRunStats("cur", benchJSON(t, 100))
	better.Circuits["ghz"]["fidelity"] = 0.999
	if v := GateDiff(DiffRunStats(base, better), rules); len(v) != 0 {
		t.Errorf("fidelity rise flagged: %v", v)
	}

	// Coverage loss: gated metric vanishing is a violation.
	gone, _ := LoadRunStats("cur", benchJSON(t, 100))
	delete(gone.Circuits["ghz"], "qoc_runs")
	rules, _ = ParseFailOn("qoc_runs=0")
	if v := GateDiff(DiffRunStats(base, gone), rules); len(v) != 1 || !strings.Contains(v[0], "missing") {
		t.Errorf("coverage loss: %v", v)
	}
}

func TestDiffNotes(t *testing.T) {
	a, _ := LoadRunStats("a", benchJSON(t, 100))
	b, _ := LoadRunStats("b", benchJSON(t, 100))
	b.Fingerprint = "fp-other"
	b.Degraded["ghz"] = []string{"deadline"}
	d := DiffRunStats(a, b)
	joined := strings.Join(d.Notes, "\n")
	if !strings.Contains(joined, "fingerprint") || !strings.Contains(joined, "degrade reasons changed") {
		t.Fatalf("notes: %v", d.Notes)
	}
}

func TestParseFailOnErrors(t *testing.T) {
	for _, bad := range []string{
		"", "latency_ns", "=3", "latency_ns=x", "latency_ns=-1", "latency_ns=12%%",
		// Non-finite slack would make every comparison pass.
		"latency_ns=NaN", "latency_ns=Inf", "latency_ns=+Inf", "latency_ns=NaN%", "latency_ns=inf%",
		// A metric in two clauses has no single limit.
		"latency_ns=1,latency_ns=2", "fidelity=0, latency_ns=0, fidelity=0",
	} {
		if _, err := ParseFailOn(bad); err == nil {
			t.Errorf("ParseFailOn(%q) accepted", bad)
		}
	}
	rules, err := ParseFailOn("latency_ns=2%, fidelity=0.001")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 || rules[0].Rel != 0.02 || rules[1].Abs != 0.001 {
		t.Fatalf("rules: %+v", rules)
	}
}

// gateArtifacts gates cur against base under BenchGatePolicy, the path
// epoc-bench -baseline takes.
func gateArtifacts(t *testing.T, base, cur *BenchArtifact) []string {
	t.Helper()
	rules, err := ParseFailOn(BenchGatePolicy)
	if err != nil {
		t.Fatal(err)
	}
	return GateDiff(DiffRunStats(fromArtifact("base", base), fromArtifact("cur", cur)), rules)
}

func TestGateDiffClean(t *testing.T) {
	base, cur := artifactPair()
	// Improvements and informational movement never gate.
	cur.Circuits[0].Metrics["latency_ns"] = 900
	cur.Circuits[0].Metrics["fidelity"] = 0.9995
	cur.Circuits[1].Metrics["compile_time_ns"] = 9e9
	if v := gateArtifacts(t, base, cur); len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}
}

func TestGateDiffRegressions(t *testing.T) {
	base, cur := artifactPair()
	cur.Circuits[0].Metrics["latency_ns"] = 1001 // worse latency
	cur.Circuits[1].Metrics["fidelity"] = 0.99   // worse fidelity
	cur.Circuits[1].Metrics["pulses"] = 21       // count crept up
	v := gateArtifacts(t, base, cur)
	// Sorted by circuit, then metric.
	want := []string{"bv_5: latency_ns worsened", "qft_4: fidelity worsened", "qft_4: pulses worsened"}
	if len(v) != len(want) {
		t.Fatalf("want %d violations, got %v", len(want), v)
	}
	for i, w := range want {
		if !strings.HasPrefix(v[i], w) {
			t.Fatalf("violation %d = %q, want prefix %q", i, v[i], w)
		}
	}

	// A gated metric missing from the current run is coverage loss.
	base, cur = artifactPair()
	delete(cur.Circuits[1].Metrics, "pulses")
	v = gateArtifacts(t, base, cur)
	if len(v) != 1 || !strings.HasPrefix(v[0], "qft_4: pulses present in baseline but missing from current") {
		t.Fatalf("missing metric: %v", v)
	}
}

func TestGateDiffIncomparable(t *testing.T) {
	for _, tc := range []struct {
		name   string
		plant  func(cur *BenchArtifact)
		reason string
	}{
		{"fingerprint", func(cur *BenchArtifact) { cur.ConfigFingerprint = "different" }, "config fingerprint differs"},
		{"suite", func(cur *BenchArtifact) { cur.Suite = "large" }, "suite differs"},
		{"dropped circuit", func(cur *BenchArtifact) { cur.Circuits = cur.Circuits[:1] }, "qft_4: latency_ns present in baseline but missing from current"},
	} {
		base, cur := artifactPair()
		tc.plant(cur)
		v := gateArtifacts(t, base, cur)
		if !strings.Contains(strings.Join(v, "\n"), tc.reason) {
			t.Errorf("%s: gate did not refuse: %v", tc.name, v)
		}
		// The plain diff only notes structural differences.
		if v := GateDiff(DiffRunStats(fromArtifact("base", base), fromArtifact("cur", cur)), nil); v != nil {
			t.Errorf("%s: ungated diff failed: %v", tc.name, v)
		}
	}
}
