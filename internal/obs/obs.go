// Package obs is the pipeline's observability substrate: a
// lightweight, goroutine-safe Recorder that the compilation stages
// thread through their hot loops to answer "where does compile time
// go, and how do the optimizers converge?" — the measurements every
// performance claim in the paper (and every future optimization PR)
// is judged against.
//
// The Recorder offers four primitives:
//
//   - named counters        Add("synth/nodes", 5)
//   - monotonic timers      sp := r.Span("stage/zx"); ...; sp.End()
//   - value distributions   Observe("qoc/grape/iterations", 120)
//   - bounded events        Eventf("qoc/grape", "slots=%d stop=%s", ...)
//
// All methods are safe on a nil *Recorder and do nothing, so
// instrumented code needs no conditionals and the disabled path costs
// a single nil check (see TestNilRecorderNoAllocs: zero allocations).
// Events are bounded (the first MaxEvents) with an explicit drop
// counter, so a long-running compile cannot grow memory without bound.
//
// Snapshot returns an immutable, JSON-serializable copy of everything
// recorded; internal/report renders it as aligned text tables.
//
// Usage (see also ExampleRecorder and ExampleRecorder_span):
//
//	r := obs.New()
//	res, err := core.Compile(c, core.Options{Device: dev, Obs: r})
//	snap := r.Snapshot()
//	fmt.Print(report.RenderSnapshot(snap))
//
// Naming convention: slash-separated lowercase paths, with the
// pipeline stage timers under "stage/" (stage/zx, stage/route,
// stage/partition, stage/synth, stage/regroup, stage/qoc), optimizer
// metrics under "qoc/" and "synth/", and cache metrics under
// "library/".
package obs

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// DefaultMaxEvents bounds the event buffer.
const DefaultMaxEvents = 256

// NumBuckets is the number of finite histogram bucket bounds every
// timer and distribution carries; one overflow (+Inf) bucket follows.
// The bounds are log-spaced by a factor of 4 starting at 1e-6 — in
// seconds for timers (1 µs up to ~275 ks) — so one fixed layout covers
// microsecond kernel spans, multi-second GRAPE stages, and unitless
// distribution values (iteration counts, milliseconds) alike. A fixed
// shared layout is what lets internal/metrics render every histogram
// with identical `le` labels and lets Merge fold recorders together
// bucket by bucket.
const NumBuckets = 20

// bucketBounds holds the finite upper bounds. Multiplying by 4 only
// shifts the exponent, so the bounds are exact and identical on every
// platform.
var bucketBounds = func() [NumBuckets]float64 {
	var b [NumBuckets]float64
	v := 1e-6
	for i := range b {
		b[i] = v
		v *= 4
	}
	return b
}()

// BucketBounds returns a copy of the finite histogram bucket upper
// bounds (the +Inf overflow bucket is implied as the final count).
func BucketBounds() []float64 {
	out := make([]float64, NumBuckets)
	copy(out, bucketBounds[:])
	return out
}

// Hist is a fixed-bucket histogram: Hist[i] counts observations with
// value ≤ BucketBounds()[i] (and above the previous bound); the final
// element counts the overflow (+Inf bucket). It is a value type — a
// fixed-size array — so snapshot copies are deep and recording into an
// existing entry allocates nothing. Counts are per-bucket, not
// cumulative; renderers that need Prometheus-style cumulative buckets
// sum as they emit.
type Hist [NumBuckets + 1]int64

// observe adds one observation. NaN (no bound compares true) lands in
// the overflow bucket rather than being dropped, so Count and the
// bucket sum always agree.
func (h *Hist) observe(v float64) {
	for i := 0; i < NumBuckets; i++ {
		if v <= bucketBounds[i] {
			h[i]++
			return
		}
	}
	h[NumBuckets]++
}

// Recorder accumulates counters, timer aggregates, value
// distributions and bounded events. All methods are goroutine-safe and
// no-ops on a nil receiver.
type Recorder struct {
	mu            sync.Mutex
	counters      map[string]int64
	timers        map[string]*TimerStats
	dists         map[string]*DistStats
	events        []Event
	eventsDropped int64
	sink          func(Event)
}

// New returns an empty Recorder keeping at most DefaultMaxEvents
// events.
func New() *Recorder {
	return &Recorder{
		counters: map[string]int64{},
		timers:   map[string]*TimerStats{},
		dists:    map[string]*DistStats{},
	}
}

// Add increments the named counter by delta.
func (r *Recorder) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Observe folds v into the named distribution (count/sum/min/max).
func (r *Recorder) Observe(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	d := r.dists[name]
	if d == nil {
		d = &DistStats{Min: v, Max: v}
		r.dists[name] = d
	}
	d.Count++
	d.Sum += v
	if v < d.Min {
		d.Min = v
	}
	if v > d.Max {
		d.Max = v
	}
	d.Buckets.observe(v)
	r.mu.Unlock()
}

// Span starts a monotonic timer under the given name; call End on the
// returned Span to record the elapsed duration. Span is a value type,
// so the disabled (nil Recorder) path allocates nothing.
func (r *Recorder) Span(name string) Span {
	if r == nil {
		return Span{}
	}
	return Span{r: r, name: name, start: time.Now()}
}

// Span is an in-flight timer measurement started by Recorder.Span.
type Span struct {
	r     *Recorder
	name  string
	start time.Time
}

// End records the elapsed time since the span started. End on a span
// from a nil Recorder is a no-op.
func (s Span) End() {
	if s.r == nil {
		return
	}
	s.r.recordDuration(s.name, time.Since(s.start))
}

func (r *Recorder) recordDuration(name string, d time.Duration) {
	r.mu.Lock()
	t := r.timers[name]
	if t == nil {
		t = &TimerStats{Min: d, Max: d}
		r.timers[name] = t
	}
	t.Count++
	t.Total += d
	if d < t.Min {
		t.Min = d
	}
	if d > t.Max {
		t.Max = d
	}
	t.Buckets.observe(d.Seconds())
	r.mu.Unlock()
}

// SetSink registers fn to receive every Event as it is recorded,
// including events past the snapshot bound (a live stream has no
// reason to stop where the bounded buffer does). fn is called
// synchronously from the recording goroutine, outside the recorder's
// lock; it must be goroutine-safe and must not call back into the
// Recorder. A nil fn detaches the sink. The progress-streaming
// endpoint in internal/serve is the intended consumer.
func (r *Recorder) SetSink(fn func(Event)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sink = fn
	r.mu.Unlock()
}

// Event records a trace event under a stage label. Events beyond the
// bound are dropped from the snapshot buffer (counted in
// Snapshot.EventsDropped) but still delivered to the sink, if any.
func (r *Recorder) Event(stage, msg string) {
	if r == nil {
		return
	}
	ev := Event{Time: time.Now(), Stage: stage, Msg: msg}
	r.mu.Lock()
	if len(r.events) < DefaultMaxEvents {
		r.events = append(r.events, ev)
	} else {
		r.eventsDropped++
	}
	sink := r.sink
	r.mu.Unlock()
	if sink != nil {
		sink(ev)
	}
}

// Eventf is Event with fmt.Sprintf formatting; the formatting only
// happens when the Recorder is non-nil.
func (r *Recorder) Eventf(stage, format string, args ...interface{}) {
	if r == nil {
		return
	}
	r.Event(stage, fmt.Sprintf(format, args...))
}

// Event is one bounded trace entry.
type Event struct {
	Time  time.Time `json:"time"`
	Stage string    `json:"stage"`
	Msg   string    `json:"msg"`
}

// TimerStats aggregates the spans recorded under one name. Buckets
// holds the fixed-layout histogram over elapsed seconds (bounds from
// BucketBounds, final element is the +Inf overflow).
type TimerStats struct {
	Count   int64         `json:"count"`
	Total   time.Duration `json:"total_ns"`
	Min     time.Duration `json:"min_ns"`
	Max     time.Duration `json:"max_ns"`
	Buckets Hist          `json:"buckets"`
}

// Mean returns the average span duration (0 when empty).
func (t TimerStats) Mean() time.Duration {
	if t.Count == 0 {
		return 0
	}
	return t.Total / time.Duration(t.Count)
}

// DistStats aggregates the values observed under one name. Buckets
// holds the fixed-layout histogram over the raw observed values
// (bounds from BucketBounds, final element is the +Inf overflow).
type DistStats struct {
	Count   int64   `json:"count"`
	Sum     float64 `json:"sum"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Buckets Hist    `json:"buckets"`
}

// Mean returns the average observed value (0 when empty).
func (d DistStats) Mean() float64 {
	if d.Count == 0 {
		return 0
	}
	return d.Sum / float64(d.Count)
}

// Snapshot is an immutable copy of everything a Recorder has seen,
// ready for JSON serialization or table rendering.
type Snapshot struct {
	Counters      map[string]int64      `json:"counters,omitempty"`
	Timers        map[string]TimerStats `json:"timers,omitempty"`
	Dists         map[string]DistStats  `json:"dists,omitempty"`
	Events        []Event               `json:"events,omitempty"`
	EventsDropped int64                 `json:"events_dropped,omitempty"`
}

// Snapshot copies the recorder's state. It is safe to call while
// other goroutines keep recording; nil recorders return nil.
func (r *Recorder) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{
		Counters:      make(map[string]int64, len(r.counters)),
		Timers:        make(map[string]TimerStats, len(r.timers)),
		Dists:         make(map[string]DistStats, len(r.dists)),
		Events:        append([]Event(nil), r.events...),
		EventsDropped: r.eventsDropped,
	}
	for k, v := range r.counters {
		s.Counters[k] = v
	}
	for k, v := range r.timers {
		s.Timers[k] = *v
	}
	for k, v := range r.dists {
		s.Dists[k] = *v
	}
	return s
}

// Merge folds a snapshot from another recorder into r: counters add,
// timer and distribution aggregates combine (counts and sums add,
// min/max widen, histogram buckets add element-wise). Events are
// deliberately not merged — they are a bounded per-recorder trace, and
// folding many per-job recorders into one server-wide
// recorder would just thrash the bound. The serve layer uses Merge to
// aggregate per-job recorders (which own the stage timers) into the
// server recorder that /metrics renders. Nil receivers and nil or
// empty snapshots are no-ops.
func (r *Recorder) Merge(s *Snapshot) {
	if r == nil || s == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, v := range s.Counters {
		r.counters[k] += v
	}
	for k, v := range s.Timers {
		if v.Count == 0 {
			continue
		}
		t := r.timers[k]
		if t == nil {
			cp := v
			r.timers[k] = &cp
			continue
		}
		t.Count += v.Count
		t.Total += v.Total
		if v.Min < t.Min {
			t.Min = v.Min
		}
		if v.Max > t.Max {
			t.Max = v.Max
		}
		for i := range t.Buckets {
			t.Buckets[i] += v.Buckets[i]
		}
	}
	for k, v := range s.Dists {
		if v.Count == 0 {
			continue
		}
		d := r.dists[k]
		if d == nil {
			cp := v
			r.dists[k] = &cp
			continue
		}
		d.Count += v.Count
		d.Sum += v.Sum
		if v.Min < d.Min {
			d.Min = v.Min
		}
		if v.Max > d.Max {
			d.Max = v.Max
		}
		for i := range d.Buckets {
			d.Buckets[i] += v.Buckets[i]
		}
	}
}

// CounterNames returns the snapshot's counter names sorted
// alphabetically (helper for deterministic rendering).
func (s *Snapshot) CounterNames() []string {
	if s == nil {
		return nil
	}
	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// TimerNames returns the snapshot's timer names sorted by total time
// descending (hottest first), ties broken alphabetically.
func (s *Snapshot) TimerNames() []string {
	if s == nil {
		return nil
	}
	names := make([]string, 0, len(s.Timers))
	for k := range s.Timers {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool {
		ti, tj := s.Timers[names[i]], s.Timers[names[j]]
		if ti.Total != tj.Total {
			return ti.Total > tj.Total
		}
		return names[i] < names[j]
	})
	return names
}

// DistNames returns the snapshot's distribution names sorted
// alphabetically.
func (s *Snapshot) DistNames() []string {
	if s == nil {
		return nil
	}
	names := make([]string, 0, len(s.Dists))
	for k := range s.Dists {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
