// Package demo exercises the spanend analyzer: a span obtained in a
// function must be deferred-ended or escape to its lifetime's owner.
package demo

import "epoc/internal/trace"

type holder struct {
	sp     *trace.Span
	region trace.Region
}

// DeferDirect is the canonical clean shape.
func DeferDirect(tr *trace.Tracer) {
	sp := tr.Start("work")
	defer sp.End()
}

// DeferChained: a chained setter still yields the same span.
func DeferChained(tr *trace.Tracer) {
	sp := tr.Start("work").SetStr("k", "v").SetInt("n", 1)
	defer sp.End()
}

// DeferInLiteral: ending inside a deferred closure counts.
func DeferInLiteral(tr *trace.Tracer) {
	sp := tr.Start("work")
	defer func() {
		sp.SetBool("done", true)
		sp.End()
	}()
}

// EscapeReturn hands the lifetime to the caller.
func EscapeReturn(tr *trace.Tracer) *trace.Span {
	sp := tr.Start("work")
	return sp
}

// EscapeArg hands the span to another function.
func EscapeArg(tr *trace.Tracer) {
	sp := tr.Start("work")
	annotate(sp)
}

func annotate(sp *trace.Span) { defer sp.End() }

// EscapeField stores the span in a struct that outlives the call.
func EscapeField(tr *trace.Tracer, h *holder) {
	sp := tr.Start("work")
	h.sp = sp
}

// EscapeLiteral places the span in a composite literal.
func EscapeLiteral(tr *trace.Tracer) holder {
	sp := tr.Start("work")
	return holder{sp: sp}
}

// Alias copies an existing pointer; no new lifetime starts.
func Alias(sp *trace.Span) {
	alias := sp
	alias.SetStr("k", "v")
}

// Leaked never ends the span.
func Leaked(tr *trace.Tracer) {
	sp := tr.Start("work") // want "spanend: span sp is not ended on every path"
	sp.SetStr("k", "v")
}

// PlainEnd misses early returns and panics; only defer covers every
// path.
func PlainEnd(tr *trace.Tracer, fail bool) error {
	sp := tr.Start("work") // want "spanend: span sp is not ended on every path"
	if fail {
		return errFail
	}
	sp.End()
	return nil
}

// LeakedChild: children need ending too.
func LeakedChild(parent *trace.Span) {
	child := parent.Child("sub") // want "spanend: span child is not ended on every path"
	child.SetInt("n", 2)
}

// ClosureLeak: a span obtained inside a worker closure is scoped to
// the closure, and the closure never ends it.
func ClosureLeak(tr *trace.Tracer) func() {
	return func() {
		sp := tr.Start("iter") // want "spanend: span sp is not ended on every path"
		sp.SetStr("k", "v")
	}
}

// ClosureClean: per-iteration spans deferred inside the closure are
// the intended worker-pool shape.
func ClosureClean(tr *trace.Tracer) func() {
	return func() {
		sp := tr.Start("iter")
		defer sp.End()
	}
}

// Suppressed: an acknowledged leak with a reason stays quiet.
func Suppressed(tr *trace.Tracer) {
	//epoc:lint-ignore spanend process-lifetime span, ended at exit
	sp := tr.Start("daemon")
	sp.SetStr("k", "v")
}

// RegionDefer: a region handle is held to the same contract as a
// span — the canonical shape is a deferred End.
func RegionDefer(tr *trace.Tracer) {
	root := trace.Open(tr, "compile").SetStr("k", "v")
	defer root.End()
	st := root.Stage("stage/zx")
	defer st.End()
}

// RegionClosureClean: per-job regions deferred inside a pool closure.
func RegionClosureClean(parent trace.Region) func(int) {
	return func(i int) {
		sp := parent.Child("block").SetInt("class", int64(i))
		defer sp.End()
	}
}

// RegionEscapeField threads the region to later stages through a
// struct field, which owns its lifetime from then on.
func RegionEscapeField(parent trace.Region, h *holder) {
	sp := parent.Stage("stage/qoc")
	h.region = sp
}

// RegionLeaked never ends the region: its obs timer never records.
func RegionLeaked(parent trace.Region) {
	sp := parent.Child("block") // want "spanend: span sp is not ended on every path"
	sp.SetStr("k", "v")
}

// RegionPlainEnd misses the early return.
func RegionPlainEnd(parent trace.Region, fail bool) error {
	sp := parent.Stage("stage/zx") // want "spanend: span sp is not ended on every path"
	if fail {
		return errFail
	}
	sp.End()
	return nil
}

// RegionClosureLeak: a per-job region the worker closure never ends.
func RegionClosureLeak(parent trace.Region) func() {
	return func() {
		sp := parent.Child("probe") // want "spanend: span sp is not ended on every path"
		sp.SetInt("slots", 4)
	}
}

var errFail = error(nil)
