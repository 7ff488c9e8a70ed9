package trace

import (
	"time"

	"epoc/internal/logx"
	"epoc/internal/obs"
)

// Region is the one handle the pipeline opens per instrumented region
// (the compile root, each stage, each synthesized block class, each
// optimized pulse, each duration-search probe). Opening a region starts
// the obs timer and the trace span of the same name; its setters
// annotate the trace span; End closes both. Stage regions also write
// the "stage start"/"stage done" log records, so no region is recorded
// by hand through three APIs that could drift apart.
//
// Region is a value type: every sink may be nil, and opening,
// annotating and ending a region with all sinks nil allocates nothing
// (TestNilRegionNoAllocs). Like a *Span, a region is owned by the
// goroutine that opened it; children may be opened from any goroutine.
// End must be called exactly once — a copy does not know the original
// was ended, so a second End would record the obs timer twice.
type Region struct {
	span  *Span
	timer obs.Span
	rec   *obs.Recorder
	log   *logx.Logger
	name  string
	stage bool
	start time.Time // read only when a stage region logs
}

// Open starts a root region: a root span on t and an obs timer on rec,
// both named name. The logger is not written by the root itself; it is
// handed to the stage regions opened beneath it. Any sink may be nil.
func Open(t *Tracer, rec *obs.Recorder, log *logx.Logger, name string) Region {
	return Region{timer: rec.Span(name), span: t.Start(name), rec: rec, log: log, name: name}
}

// Stage opens a pipeline-stage child region. Besides the timer and the
// child span it writes a "stage start" record now and a "stage done"
// record (with elapsed_ms) at End, both carrying the stage name.
func (r Region) Stage(name string) Region {
	c := r.Child(name)
	c.log, c.stage = r.log, true
	if c.log.Enabled() {
		c.start = time.Now()
		c.log.Info("stage start", "stage", name)
	}
	return c
}

// Child opens a child region: an obs timer and a child span of the
// same name, recorded on the parent's recorder. Child regions write no
// log records — logs stay at stage and compile boundaries.
func (r Region) Child(name string) Region {
	return Region{timer: r.rec.Span(name), span: r.span.Child(name), rec: r.rec, name: name}
}

// End stops the obs timer, ends the trace span and, on a stage region,
// writes the "stage done" record.
func (r Region) End() {
	r.timer.End()
	r.span.End()
	if r.stage && r.log.Enabled() {
		r.log.Info("stage done",
			"stage", r.name,
			"elapsed_ms", float64(time.Since(r.start).Nanoseconds())/1e6)
	}
}

// Recorder returns the recorder the region's timer runs on, for
// counters and distributions recorded inside the region (nil when
// metrics are off).
func (r Region) Recorder() *obs.Recorder { return r.rec }

// SetStr attaches a string attribute to the region's trace span.
func (r Region) SetStr(key, v string) Region {
	r.span.SetStr(key, v)
	return r
}

// SetInt attaches an integer attribute to the region's trace span.
func (r Region) SetInt(key string, v int64) Region {
	r.span.SetInt(key, v)
	return r
}

// SetFloat attaches a float attribute to the region's trace span.
func (r Region) SetFloat(key string, v float64) Region {
	r.span.SetFloat(key, v)
	return r
}

// SetBool attaches a boolean attribute to the region's trace span.
func (r Region) SetBool(key string, v bool) Region {
	r.span.SetBool(key, v)
	return r
}
