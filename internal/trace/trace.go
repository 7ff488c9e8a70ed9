// Package trace is the pipeline's span-level tracer: where internal/obs
// answers "how much time went into each named region in aggregate",
// trace answers "which block, which QSearch expansion, which GRAPE
// probe ate the wall clock" — it records a hierarchy of timed spans
// with typed attributes (stage, block id, cache status, nodes
// expanded, probe slots, final infidelity, degrade reasons) and
// exports them as Chrome trace-event JSON loadable in Perfetto or
// chrome://tracing. Per-name aggregates are not kept here: every
// pipeline span is opened through a Region, whose obs timer of the
// same name already counts and totals it.
//
// Design constraints, in the order they shaped the API:
//
//   - Nil safety and zero cost when disabled. Every method is safe on
//     a nil *Tracer or nil *Span and does nothing; the disabled path
//     is a single nil check with zero allocations (see
//     TestNilTracerNoAllocs), so the pipeline threads spans
//     unconditionally.
//   - Goroutine safety across pools. Spans are started from worker
//     goroutines against a shared parent (stage 3's synthesis pool,
//     stage 5's QOC job pool); the tracer serializes span
//     registration, and each span's fields are owned by the goroutine
//     that started it until End.
//   - Determinism under an injected clock. Time is read through the
//     Clock interface (satisfied by faultclock.Real() and
//     faultclock.Fake), and the exporter orders spans canonically by
//     (start, name, attributes) rather than by creation order — so a
//     compile under a fake clock exports byte-identical traces at any
//     worker count, which is what the golden tests pin.
//
// The pipeline does not open spans directly: it opens one Region per
// instrumented region (region.go), which drives the span, the obs
// timer of the same name and the stage log records together. trace
// therefore imports the two telemetry leaves, internal/obs and
// internal/logx, and nothing else: it defines its own Clock interface
// rather than importing faultclock's, and both packages' clocks
// satisfy it.
package trace

import (
	"sync"
	"time"
)

// Clock is an injectable time source; faultclock.Clock implementations
// (Real and Fake) satisfy it. Implementations must be goroutine-safe.
type Clock interface {
	Now() time.Time
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// Tracer collects spans for one or more compilations. All methods are
// goroutine-safe and no-ops on a nil receiver.
type Tracer struct {
	clock Clock

	mu    sync.Mutex
	epoch time.Time // first instant observed; export timestamps are relative to it
	spans []*Span   // registration order (not canonical; export re-sorts)
}

// New returns an empty tracer reading time from clock; a nil clock
// means the real time.Now. Inject a faultclock.Fake to make exported
// timestamps (and therefore the exported bytes) deterministic.
func New(clock Clock) *Tracer {
	if clock == nil {
		clock = realClock{}
	}
	return &Tracer{clock: clock}
}

// AttrKind discriminates the typed attribute union.
type AttrKind int

// Attribute kinds.
const (
	AttrStr AttrKind = iota
	AttrInt
	AttrFloat
	AttrBool
)

// Attr is one typed span attribute. Exactly one value field is
// meaningful, selected by Kind.
type Attr struct {
	Key   string
	Kind  AttrKind
	Str   string
	Int   int64
	Float float64
	Bool  bool
}

// Span is one timed region in the trace hierarchy. A span is owned by
// the goroutine that started it: SetX and End must not race with each
// other, but children may be started from any goroutine. All methods
// are no-ops on a nil *Span.
type Span struct {
	tr     *Tracer
	parent *Span
	name   string
	start  time.Time
	end    time.Time
	ended  bool
	attrs  []Attr
	seq    int // per-tracer registration sequence (stable-sort fallback)

	// children is populated only during export (single goroutine),
	// holding the canonically ordered child list for the emit walk.
	children []*childList
}

// Start begins a root span. Returns nil (and allocates nothing) on a
// nil tracer.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return t.register(nil, name)
}

// Child begins a span under s. Child is safe to call from any
// goroutine — stage worker pools start block spans against the shared
// stage span — and returns nil on a nil span.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.register(s, name)
}

func (t *Tracer) register(parent *Span, name string) *Span {
	now := t.clock.Now()
	t.mu.Lock()
	if t.epoch.IsZero() {
		t.epoch = now
	}
	sp := &Span{tr: t, parent: parent, name: name, start: now, seq: len(t.spans)}
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp
}

// End closes the span at the tracer's current clock reading. A second
// End is a no-op, so `defer sp.End()` composes with an earlier
// explicit End on the happy path.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.end = s.tr.clock.Now()
}

// SetStr attaches a string attribute and returns the span for
// chaining.
func (s *Span) SetStr(key, v string) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, Attr{Key: key, Kind: AttrStr, Str: v})
	return s
}

// SetInt attaches an integer attribute and returns the span.
func (s *Span) SetInt(key string, v int64) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, Attr{Key: key, Kind: AttrInt, Int: v})
	return s
}

// SetFloat attaches a float attribute and returns the span.
func (s *Span) SetFloat(key string, v float64) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, Attr{Key: key, Kind: AttrFloat, Float: v})
	return s
}

// SetBool attaches a boolean attribute and returns the span.
func (s *Span) SetBool(key string, v bool) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, Attr{Key: key, Kind: AttrBool, Bool: v})
	return s
}

// snapshot copies the span list under the lock. The span structs
// themselves are read without synchronization, which is safe once
// their owning goroutines have ended them and joined (the pipeline
// always joins its pools before export).
func (t *Tracer) snapshot() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.spans...)
}
