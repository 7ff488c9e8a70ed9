// Package metrics renders an obs.Snapshot in Prometheus text
// exposition format v0.0.4 — the scrape surface behind GET /metrics on
// debugsrv and epoc-serve. It is pure stdlib and read-only: the hot
// path keeps recording into obs, and a scrape snapshots + renders.
//
// Naming scheme (DESIGN.md §15):
//
//   - every exported name is epoc_-prefixed snake_case (the strict
//     parser, Parse, enforces this and the counter/gauge suffix rules);
//   - obs counters become counter families ending _total, with a
//     rename table for the names operators alert on
//     (synthcache/hit → epoc_synthcache_hits_total) and a generic
//     slash→underscore fallback for the rest
//     (store/warm/pulses → epoc_store_warm_pulses_total);
//   - obs timers named stage/<x> fold into ONE histogram family,
//     epoc_stage_seconds{stage="<x>"}, so per-stage latency is a label
//     query, not N families; other timers become their own
//     epoc_<name>_seconds histograms;
//   - obs distributions become unitless epoc_<name> histograms;
//   - gauges (queue depth, inflight, EWMA) are supplied by the caller
//     per scrape, since they are instantaneous reads, not accumulated
//     state.
//
// Histograms share the fixed log-spaced bucket layout from
// obs.BucketBounds and are emitted with cumulative _bucket{le=}, _sum
// and _count series. Families are sorted by name and series within a
// family by label value, so the exposition is byte-deterministic for a
// given snapshot — golden-testable.
package metrics

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"epoc/internal/obs"
)

// ContentType is the Content-Type for Prometheus text format v0.0.4.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// stageFamily is the shared histogram family for stage/<x> timers;
// required by the serve acceptance criteria as
// epoc_stage_seconds_bucket{stage=...}.
const stageFamily = "epoc_stage_seconds"

// promRenames maps the obs counter names operators alert on to their
// canonical exposition names. Everything else falls through to the
// generic epoc_<sanitized>_total form.
var promRenames = map[string]string{
	"synthcache/hit":       "epoc_synthcache_hits_total",
	"synthcache/miss":      "epoc_synthcache_misses_total",
	"synthcache/coalesced": "epoc_synthcache_coalesced_total",
	"library/hits":         "epoc_library_hits_total",
	"library/misses":       "epoc_library_misses_total",
}

// Gauge is one instantaneous value supplied by the caller at scrape
// time (queue depth, inflight jobs, EWMA compile time). Name must be
// epoc_-prefixed snake_case; Labels may be nil.
type Gauge struct {
	Name   string
	Help   string
	Labels map[string]string
	Value  float64
}

// Render writes the snapshot plus caller gauges as Prometheus text
// format v0.0.4. A nil snapshot renders only the gauges. The output is
// deterministic: families alphabetical, series within a family sorted
// by label.
func Render(w io.Writer, snap *obs.Snapshot, gauges []Gauge) error {
	var b strings.Builder
	writeCounters(&b, snap)
	writeGauges(&b, gauges)
	writeTimers(&b, snap)
	writeDists(&b, snap)

	// Assemble families alphabetically for a stable exposition.
	_, err := io.WriteString(w, b.String())
	return err
}

// family is one # HELP/# TYPE block plus its sample lines.
type family struct {
	name  string
	typ   string
	help  string
	lines []string
}

func (f *family) write(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, f.help)
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	for _, l := range f.lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
}

func writeFamilies(b *strings.Builder, fams map[string]*family) {
	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fams[n].write(b)
	}
}

func writeCounters(b *strings.Builder, snap *obs.Snapshot) {
	if snap == nil || len(snap.Counters) == 0 {
		return
	}
	fams := map[string]*family{}
	for _, k := range snap.CounterNames() {
		name := CounterName(k)
		fams[name] = &family{
			name:  name,
			typ:   "counter",
			help:  fmt.Sprintf("obs counter %q.", k),
			lines: []string{fmt.Sprintf("%s %d", name, snap.Counters[k])},
		}
	}
	writeFamilies(b, fams)
}

func writeGauges(b *strings.Builder, gauges []Gauge) {
	if len(gauges) == 0 {
		return
	}
	fams := map[string]*family{}
	for _, g := range gauges {
		f := fams[g.Name]
		if f == nil {
			f = &family{name: g.Name, typ: "gauge", help: g.Help}
			fams[g.Name] = f
		}
		f.lines = append(f.lines,
			fmt.Sprintf("%s%s %s", g.Name, labelString(g.Labels), formatFloat(g.Value)))
	}
	for _, f := range fams {
		sort.Strings(f.lines)
	}
	writeFamilies(b, fams)
}

func writeTimers(b *strings.Builder, snap *obs.Snapshot) {
	if snap == nil || len(snap.Timers) == 0 {
		return
	}
	fams := map[string]*family{}
	names := make([]string, 0, len(snap.Timers))
	for k := range snap.Timers {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		t := snap.Timers[k]
		if stage, ok := strings.CutPrefix(k, "stage/"); ok {
			f := fams[stageFamily]
			if f == nil {
				f = &family{
					name: stageFamily,
					typ:  "histogram",
					help: "Pipeline stage latency in seconds, labeled by stage.",
				}
				fams[stageFamily] = f
			}
			appendHistogram(f, stageFamily, map[string]string{"stage": stage},
				t.Buckets, t.Total.Seconds(), t.Count)
			continue
		}
		name := sanitize(k) + "_seconds"
		f := &family{
			name: name,
			typ:  "histogram",
			help: fmt.Sprintf("obs timer %q in seconds.", k),
		}
		appendHistogram(f, name, nil, t.Buckets, t.Total.Seconds(), t.Count)
		fams[name] = f
	}
	writeFamilies(b, fams)
}

func writeDists(b *strings.Builder, snap *obs.Snapshot) {
	if snap == nil || len(snap.Dists) == 0 {
		return
	}
	fams := map[string]*family{}
	for _, k := range snap.DistNames() {
		d := snap.Dists[k]
		name := sanitize(k)
		f := &family{
			name: name,
			typ:  "histogram",
			help: fmt.Sprintf("obs distribution %q.", k),
		}
		appendHistogram(f, name, nil, d.Buckets, d.Sum, d.Count)
		fams[name] = f
	}
	writeFamilies(b, fams)
}

// appendHistogram emits cumulative _bucket{le=} lines, _sum and _count
// for one series of a histogram family. obs buckets are per-bucket
// counts; Prometheus buckets are cumulative.
func appendHistogram(f *family, name string, labels map[string]string, h obs.Hist, sum float64, count int64) {
	bounds := obs.BucketBounds()
	var cum int64
	for i, bound := range bounds {
		cum += h[i]
		f.lines = append(f.lines, fmt.Sprintf("%s_bucket%s %d",
			name, labelStringWith(labels, "le", formatFloat(bound)), cum))
	}
	cum += h[len(bounds)]
	f.lines = append(f.lines, fmt.Sprintf("%s_bucket%s %d",
		name, labelStringWith(labels, "le", "+Inf"), cum))
	f.lines = append(f.lines, fmt.Sprintf("%s_sum%s %s", name, labelString(labels), formatFloat(sum)))
	f.lines = append(f.lines, fmt.Sprintf("%s_count%s %d", name, labelString(labels), count))
}

// CounterName maps an obs counter name to its exposition name: the
// rename table first, then the generic epoc_<sanitized>_total form.
func CounterName(obsName string) string {
	if n, ok := promRenames[obsName]; ok {
		return n
	}
	return sanitize(obsName) + "_total"
}

// sanitize maps an obs slash-path name to epoc_-prefixed snake_case:
// lowercase, every non-[a-z0-9] run collapses to one underscore.
func sanitize(name string) string {
	var b strings.Builder
	b.WriteString("epoc")
	prev := '_'
	for _, r := range strings.ToLower(name) {
		if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
			if b.Len() == 4 { // after "epoc": separator before the name body
				b.WriteByte('_')
			}
			b.WriteRune(r)
			prev = r
			continue
		}
		if prev != '_' && b.Len() > 4 {
			b.WriteByte('_')
			prev = '_'
		}
	}
	s := b.String()
	return strings.TrimRight(s, "_")
}

// labelString renders {k="v",...} with keys sorted, or "" when empty.
func labelString(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	return labelStringWith(labels, "", "")
}

// labelStringWith renders labels plus one extra pair (appended last,
// matching the Prometheus convention of le as the final label). The
// extra pair is skipped when extraKey is empty.
func labelStringWith(labels map[string]string, extraKey, extraVal string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[k]))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraVal))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel applies the text-format label value escaping: backslash,
// double-quote and newline.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// formatFloat renders a float the shortest way that round-trips —
// matching the le bound format the strict parser checks.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves GET /metrics: snap() supplies the current obs
// snapshot and gauges() the instantaneous gauge values; either may be
// nil. Rendering happens into a buffer first so a slow client never
// observes a half-written exposition.
func Handler(snap func() *obs.Snapshot, gauges func() []Gauge) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		var s *obs.Snapshot
		if snap != nil {
			s = snap()
		}
		var gs []Gauge
		if gauges != nil {
			gs = gauges()
		}
		var b strings.Builder
		if err := Render(&b, s, gs); err != nil {
			http.Error(w, "render failed", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", ContentType)
		_, _ = io.WriteString(w, b.String())
	})
}
