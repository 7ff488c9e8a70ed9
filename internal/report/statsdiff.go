package report

// Run-diff support for cmd/epoc-stats: load any of {run manifest,
// bench artifact, /v1/stats snapshot} into one normalized shape, diff
// two of them, and gate the deltas against -fail-on thresholds. See
// DESIGN.md §15 "Run diffing".

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// RunStats is the normalized view epoc-stats diffs: per-circuit scalar
// metrics (empty for a pure stats snapshot), run-wide scalars (cache
// hit rates, queue state), and per-circuit degrade reasons.
type RunStats struct {
	Label  string
	Source string // manifest | bench | stats
	Suite  string
	// Fingerprint is the config fingerprint when the source carries
	// one. When the two sides differ, DiffRunStats only notes it (the
	// plain diff is a lens); GateDiff refuses to gate them.
	Fingerprint string
	Circuits    map[string]map[string]float64
	Run         map[string]float64
	Degraded    map[string][]string
}

// LoadRunStats sniffs data as one of the three supported artifacts.
// The stats check runs first: /v1/stats bodies carry a "circuits"
// catalog too, but only they have "queue"; bench artifacts are then
// the ones with "circuits", manifests the ones with "circuit".
func LoadRunStats(label string, data []byte) (*RunStats, error) {
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("report: %s: not a JSON object: %w", label, err)
	}
	switch {
	case probe["queue"] != nil:
		return fromStatsSnapshot(label, data)
	case probe["circuits"] != nil:
		a, err := DecodeArtifact(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", label, err)
		}
		return fromArtifact(label, a), nil
	case probe["circuit"] != nil:
		m, err := DecodeManifest(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", label, err)
		}
		return fromManifest(label, m), nil
	default:
		return nil, fmt.Errorf("report: %s: unrecognized artifact (want a bench JSON, a run manifest, or a /v1/stats snapshot)", label)
	}
}

func fromArtifact(label string, a *BenchArtifact) *RunStats {
	rs := &RunStats{
		Label: label, Source: "bench",
		Suite: a.Suite, Fingerprint: a.ConfigFingerprint,
		Circuits: map[string]map[string]float64{},
		Run:      map[string]float64{},
		Degraded: map[string][]string{},
	}
	for _, c := range a.Circuits {
		rs.Circuits[c.Name] = c.Metrics
	}
	rs.Run["circuits"] = float64(len(a.Circuits))
	return rs
}

func fromManifest(label string, m *Manifest) *RunStats {
	rs := &RunStats{
		Label: label, Source: "manifest",
		Fingerprint: m.ConfigFingerprint,
		Circuits:    map[string]map[string]float64{m.Circuit: m.Metrics},
		Run:         map[string]float64{},
		Degraded:    map[string][]string{},
	}
	if len(m.DegradeReasons) > 0 {
		rs.Degraded[m.Circuit] = m.DegradeReasons
	}
	// The embedded obs snapshot carries the cache counters the serve
	// stats expose run-wide; lift them so a manifest diffs against a
	// stats snapshot on the shared hit-rate keys.
	if m.Obs != nil {
		c := m.Obs.Counters
		addRate(rs.Run, "synth_hit_rate", float64(c["synthcache/hit"]+c["synthcache/coalesced"]), float64(c["synthcache/miss"]))
		addRate(rs.Run, "library_hit_rate", float64(c["library/hits"]), float64(c["library/misses"]))
	}
	return rs
}

// statsSnapshot mirrors the numeric spine of serve's /v1/stats body.
// Declared here structurally (report must not import serve — the DAG
// points the other way); unknown fields are simply ignored.
type statsSnapshot struct {
	Counters map[string]float64 `json:"counters"`
	Cache    struct {
		SynthEntries   float64 `json:"synth_entries"`
		SynthHits      float64 `json:"synth_hits"`
		SynthMisses    float64 `json:"synth_misses"`
		SynthCoalesced float64 `json:"synth_coalesced"`
		LibraryEntries float64 `json:"library_entries"`
		LibraryHits    float64 `json:"library_hits"`
		LibraryMisses  float64 `json:"library_misses"`
	} `json:"cache"`
	Queue struct {
		Workers  float64 `json:"workers"`
		Len      float64 `json:"len"`
		Cap      float64 `json:"cap"`
		Inflight float64 `json:"inflight"`
		AvgMS    float64 `json:"avg_compile_ms"`
	} `json:"queue"`
}

func fromStatsSnapshot(label string, data []byte) (*RunStats, error) {
	var s statsSnapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("report: %s: invalid stats snapshot: %w", label, err)
	}
	rs := &RunStats{
		Label: label, Source: "stats",
		Circuits: map[string]map[string]float64{},
		Run:      map[string]float64{},
		Degraded: map[string][]string{},
	}
	for k, v := range s.Counters {
		rs.Run["counter:"+k] = v
	}
	rs.Run["synth_entries"] = s.Cache.SynthEntries
	rs.Run["library_entries"] = s.Cache.LibraryEntries
	addRate(rs.Run, "synth_hit_rate", s.Cache.SynthHits, s.Cache.SynthMisses)
	addRate(rs.Run, "library_hit_rate", s.Cache.LibraryHits, s.Cache.LibraryMisses)
	rs.Run["queue_len"] = s.Queue.Len
	rs.Run["inflight"] = s.Queue.Inflight
	rs.Run["avg_compile_ms"] = s.Queue.AvgMS
	return rs, nil
}

// addRate stores hits/(hits+misses) under name when there was any
// traffic; a rate over zero lookups is noise, not a metric.
func addRate(m map[string]float64, name string, hits, misses float64) {
	if total := hits + misses; total > 0 {
		m[name] = hits / total
	}
}

// DiffRow is one metric's movement between two runs. Scope is the
// circuit name, or "" for run-wide metrics.
type DiffRow struct {
	Scope  string
	Metric string
	Base   float64
	Cur    float64
	// HasBase/HasCur distinguish "metric absent on one side" from a
	// genuine zero.
	HasBase bool
	HasCur  bool
}

// Delta is current − baseline (0 when either side is missing).
func (r DiffRow) Delta() float64 {
	if !r.HasBase || !r.HasCur {
		return 0
	}
	return r.Cur - r.Base
}

// Pct is the signed percent change against the baseline (positive =
// the value grew; whether that is good depends on the metric, which
// is the gate's business, not the table's).
func (r DiffRow) Pct() float64 {
	//epoc:lint-ignore floatcmp guards division; a baseline of exactly 0 means no reference value
	if !r.HasBase || !r.HasCur || r.Base == 0 {
		return 0
	}
	return 100 * (r.Cur - r.Base) / r.Base
}

// RunDiff is the full comparison: every metric either side carries,
// sorted (run-wide first, then circuits alphabetically), plus notes
// about structural differences the rows cannot express.
type RunDiff struct {
	Base, Cur *RunStats
	Rows      []DiffRow
	Notes     []string
}

// DiffRunStats compares two normalized runs metric-by-metric. It
// never fails: incomparable inputs produce notes, and the gate — not
// the diff — decides what is fatal.
func DiffRunStats(base, cur *RunStats) *RunDiff {
	d := &RunDiff{Base: base, Cur: cur, Notes: incomparable(base, cur)}

	d.Rows = append(d.Rows, diffMaps("", base.Run, cur.Run)...)
	for _, scope := range unionKeys(circuitNames(base), circuitNames(cur)) {
		d.Rows = append(d.Rows, diffMaps(scope, base.Circuits[scope], cur.Circuits[scope])...)
	}

	for _, scope := range unionKeys(degradeNames(base), degradeNames(cur)) {
		b := strings.Join(base.Degraded[scope], ",")
		c := strings.Join(cur.Degraded[scope], ",")
		if b != c {
			d.Notes = append(d.Notes, fmt.Sprintf("%s: degrade reasons changed: [%s] → [%s]", scope, b, c))
		}
	}
	return d
}

// incomparable lists why two runs' deltas are not behaviour changes:
// both sides carry a config fingerprint or a suite, and they differ.
func incomparable(base, cur *RunStats) []string {
	var out []string
	if base.Fingerprint != "" && cur.Fingerprint != "" && base.Fingerprint != cur.Fingerprint {
		out = append(out, fmt.Sprintf(
			"config fingerprint differs (%.12s… vs %.12s…): deltas include config changes",
			base.Fingerprint, cur.Fingerprint))
	}
	if base.Suite != "" && cur.Suite != "" && base.Suite != cur.Suite {
		out = append(out, fmt.Sprintf("suite differs: %q vs %q", base.Suite, cur.Suite))
	}
	return out
}

func diffMaps(scope string, base, cur map[string]float64) []DiffRow {
	var rows []DiffRow
	for _, metric := range unionKeys(mapKeys(base), mapKeys(cur)) {
		bv, hasB := base[metric]
		cv, hasC := cur[metric]
		rows = append(rows, DiffRow{
			Scope: scope, Metric: metric,
			Base: bv, Cur: cv, HasBase: hasB, HasCur: hasC,
		})
	}
	return rows
}

func mapKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func circuitNames(rs *RunStats) []string {
	out := make([]string, 0, len(rs.Circuits))
	for k := range rs.Circuits {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func degradeNames(rs *RunStats) []string {
	out := make([]string, 0, len(rs.Degraded))
	for k := range rs.Degraded {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func unionKeys(a, b []string) []string {
	set := map[string]bool{}
	for _, k := range a {
		set[k] = true
	}
	for _, k := range b {
		set[k] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// FormatDiff renders the diff as the epoc-stats table: scope, metric,
// both values, delta and percent, one ← / → marker per side-only
// metric, notes appended underneath.
func FormatDiff(d *RunDiff) string {
	t := NewTable(fmt.Sprintf("run diff: %s (%s) vs %s (%s)",
		d.Base.Label, d.Base.Source, d.Cur.Label, d.Cur.Source),
		"scope", "metric", d.Base.Label, d.Cur.Label, "delta", "pct")
	for _, r := range d.Rows {
		scope := r.Scope
		if scope == "" {
			scope = "(run)"
		}
		switch {
		case !r.HasBase:
			t.AddRow(scope, r.Metric, "—", fmtF(r.Cur), "→ new", "")
		case !r.HasCur:
			t.AddRow(scope, r.Metric, fmtF(r.Base), "—", "← gone", "")
		default:
			pct := ""
			//epoc:lint-ignore floatcmp a baseline of exactly 0 has no percent change to render
			if r.Base != 0 {
				pct = fmt.Sprintf("%+.2f%%", r.Pct())
			}
			t.AddRow(scope, r.Metric, fmtF(r.Base), fmtF(r.Cur),
				fmtF(r.Delta()), pct)
		}
	}
	var sb strings.Builder
	sb.WriteString(t.String())
	for _, n := range d.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// FailRule is one -fail-on clause: the metric may move against the
// baseline in its worse direction by at most |base|·Rel + Abs.
type FailRule struct {
	Metric string
	Rel    float64 // from a "%" suffixed limit
	Abs    float64
}

// ParseFailOn parses the -fail-on grammar:
//
//	metric=limit[,metric=limit...]
//
// where limit is an absolute delta ("latency_ns=100") or a percentage
// ("latency_ns=2%"). "metric=0" means any worsening fails. A limit
// must be finite and non-negative — NaN or Inf slack would switch the
// gate off — and each metric may appear in one clause only.
func ParseFailOn(spec string) ([]FailRule, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("report: empty -fail-on spec")
	}
	var rules []FailRule
	seen := map[string]bool{}
	for _, clause := range strings.Split(spec, ",") {
		name, limit, ok := strings.Cut(strings.TrimSpace(clause), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("report: -fail-on clause %q: want metric=limit", clause)
		}
		if seen[name] {
			return nil, fmt.Errorf("report: -fail-on %s: metric appears in two clauses", name)
		}
		seen[name] = true
		num, isPct := strings.CutSuffix(limit, "%")
		v, err := strconv.ParseFloat(num, 64)
		if err != nil || v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("report: -fail-on %s: bad limit %q", name, limit)
		}
		r := FailRule{Metric: name}
		if isPct {
			r.Rel = v / 100
		} else {
			r.Abs = v
		}
		rules = append(rules, r)
	}
	return rules, nil
}

// higherIsBetter says which direction is a regression for a metric,
// from its name alone: rates and fidelities rise when things improve,
// everything else (latencies, times, counts) falls.
func higherIsBetter(metric string) bool {
	return strings.HasSuffix(metric, "hit_rate") || strings.HasSuffix(metric, "fidelity")
}

// GateDiff applies -fail-on rules to a diff and returns one violation
// line per breach: a gated metric that worsened past its allowance,
// or that disappeared from the current side entirely (coverage loss).
// With any rules it also refuses inputs whose deltas are not behaviour
// changes — a different suite or config fingerprint — instead of
// gating them.
func GateDiff(d *RunDiff, rules []FailRule) []string {
	if len(rules) == 0 {
		return nil
	}
	out := incomparable(d.Base, d.Cur)
	for _, rule := range rules {
		for _, r := range d.Rows {
			if r.Metric != rule.Metric || !r.HasBase {
				continue
			}
			scope := r.Scope
			if scope == "" {
				scope = "(run)"
			}
			if !r.HasCur {
				out = append(out, fmt.Sprintf("%s: %s present in baseline but missing from current",
					scope, r.Metric))
				continue
			}
			slack := abs(r.Base)*rule.Rel + rule.Abs
			worse := r.Cur - r.Base // lower-is-better: positive is worse
			if higherIsBetter(r.Metric) {
				worse = r.Base - r.Cur
			}
			// Strict inequality: "=0" tolerates float-identical values
			// but fails on any real movement in the worse direction.
			if worse > slack {
				out = append(out, fmt.Sprintf("%s: %s worsened: %g → %g (allowed slack %g)",
					scope, r.Metric, r.Base, r.Cur, slack))
			}
		}
	}
	sort.Strings(out)
	return out
}
