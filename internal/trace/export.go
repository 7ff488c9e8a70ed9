package trace

import (
	"bytes"
	"encoding/json"
	"sort"
	"strconv"
	"time"
)

// ChromeTrace exports every ended span as Chrome trace-event JSON
// (the format Perfetto and chrome://tracing load): one complete ("X")
// event per span with microsecond timestamps relative to the tracer's
// epoch. Spans still open at export time are skipped.
//
// Track (tid) assignment is derived from the recorded intervals, not
// from goroutine identity: a span inherits its parent's track when it
// nests there without overlapping a sibling, and overlapping siblings
// — concurrent block syntheses, parallel QOC probes — are pushed to
// the lowest free track. A real parallel compile therefore renders as
// one track per busy worker, while a fake-clock compile (all spans
// zero-width, nothing overlaps) collapses onto track 0 — which is
// what makes the exported bytes identical at any worker count and
// lets the golden test pin them.
//
// Ordering is canonical: siblings sort by (start, name, attributes),
// falling back to registration order only on full ties, so the byte
// output does not depend on goroutine scheduling.
func (t *Tracer) ChromeTrace() []byte {
	if t == nil {
		return []byte("{\"traceEvents\":[]}\n")
	}
	t.mu.Lock()
	epoch := t.epoch
	t.mu.Unlock()

	roots := buildTree(t.snapshot())
	var lanes []([]*Span) // spans assigned per track, for overlap checks
	var buf bytes.Buffer
	buf.WriteString("{\"traceEvents\":[")
	first := true
	var emit func(sp *Span, parentLane int)
	emit = func(sp *Span, parentLane int) {
		lane := assignLane(&lanes, sp, parentLane)
		if !first {
			buf.WriteByte(',')
		}
		first = false
		writeEvent(&buf, sp, epoch, lane)
		for _, c := range sp.children {
			emit(c.span, lane)
		}
	}
	for _, r := range roots {
		emit(r, -1)
	}
	buf.WriteString("],\"displayTimeUnit\":\"ns\"}\n")
	return buf.Bytes()
}

// childList links a span to its canonically ordered children during
// the export walk.
type childList struct {
	span     *Span
	children []*childList
}

// buildTree links ended spans into parent→children lists and sorts
// every sibling list canonically. Spans whose parent never ended are
// promoted to roots so a mid-compile export degrades gracefully.
func buildTree(spans []*Span) []*Span {
	byID := map[*Span]*childList{}
	var all []*childList
	for _, sp := range spans {
		if !sp.ended {
			continue
		}
		n := &childList{span: sp}
		byID[sp] = n
		all = append(all, n)
	}
	var roots []*childList
	for _, n := range all {
		if p := n.span.parent; p != nil {
			if pn, ok := byID[p]; ok {
				pn.children = append(pn.children, n)
				continue
			}
		}
		roots = append(roots, n)
	}
	sortSiblings(roots)
	for _, n := range all {
		sortSiblings(n.children)
	}
	// Re-expose through the Span structs: stash the ordered children on
	// each span for the emit walk.
	for _, n := range all {
		n.span.children = n.children
	}
	out := make([]*Span, len(roots))
	for i, n := range roots {
		out[i] = n.span
	}
	return out
}

// sortSiblings orders a sibling list by (start, name, attribute
// string), keeping registration order only on full ties. Concurrent
// siblings carry distinguishing attributes (block class index, probe
// slot count), so a deterministic workload exports deterministically
// even when goroutine interleaving differs.
func sortSiblings(ns []*childList) {
	sort.SliceStable(ns, func(i, j int) bool {
		a, b := ns[i].span, ns[j].span
		if !a.start.Equal(b.start) {
			return a.start.Before(b.start)
		}
		if a.name != b.name {
			return a.name < b.name
		}
		ak, bk := a.attrKey(), b.attrKey()
		if ak != bk {
			return ak < bk
		}
		return a.seq < b.seq
	})
}

// attrKey renders the attribute list as a comparable string.
func (s *Span) attrKey() string {
	var b bytes.Buffer
	for _, a := range s.attrs {
		b.WriteString(a.Key)
		b.WriteByte('=')
		b.WriteString(a.valueString())
		b.WriteByte(';')
	}
	return b.String()
}

func (a Attr) valueString() string {
	switch a.Kind {
	case AttrInt:
		return strconv.FormatInt(a.Int, 10)
	case AttrFloat:
		return strconv.FormatFloat(a.Float, 'g', -1, 64)
	case AttrBool:
		return strconv.FormatBool(a.Bool)
	default:
		return a.Str
	}
}

// assignLane places sp on its parent's track when it fits (proper
// nesting renders as flame-graph stacking in Perfetto), otherwise on
// the lowest track where it overlaps nothing already placed.
func assignLane(lanes *[]([]*Span), sp *Span, parentLane int) int {
	if parentLane >= 0 && !overlapsAny((*lanes)[parentLane], sp) {
		(*lanes)[parentLane] = append((*lanes)[parentLane], sp)
		return parentLane
	}
	for l := range *lanes {
		if l == parentLane {
			continue
		}
		if !overlapsAny((*lanes)[l], sp) {
			(*lanes)[l] = append((*lanes)[l], sp)
			return l
		}
	}
	*lanes = append(*lanes, []*Span{sp})
	return len(*lanes) - 1
}

// overlapsAny reports whether sp's interval overlaps any span already
// on the lane, ignoring its own ancestors (a child properly nested in
// its parent shares the parent's track). Zero-width intervals never
// overlap anything.
func overlapsAny(lane []*Span, sp *Span) bool {
	for _, other := range lane {
		if isAncestor(other, sp) {
			continue
		}
		if sp.start.Before(other.end) && other.start.Before(sp.end) {
			return true
		}
	}
	return false
}

func isAncestor(candidate, sp *Span) bool {
	for p := sp.parent; p != nil; p = p.parent {
		if p == candidate {
			return true
		}
	}
	return false
}

// writeEvent emits one complete event. Timestamps are microseconds
// with nanosecond precision, relative to the tracer epoch; string
// values are JSON-escaped through encoding/json.
func writeEvent(buf *bytes.Buffer, sp *Span, epoch time.Time, lane int) {
	buf.WriteString("{\"name\":")
	writeJSONString(buf, sp.name)
	buf.WriteString(",\"ph\":\"X\",\"pid\":1,\"tid\":")
	buf.WriteString(strconv.Itoa(lane))
	buf.WriteString(",\"ts\":")
	buf.WriteString(micros(sp.start.Sub(epoch)))
	buf.WriteString(",\"dur\":")
	buf.WriteString(micros(sp.end.Sub(sp.start)))
	if len(sp.attrs) > 0 {
		buf.WriteString(",\"args\":{")
		for i, a := range sp.attrs {
			if i > 0 {
				buf.WriteByte(',')
			}
			writeJSONString(buf, a.Key)
			buf.WriteByte(':')
			switch a.Kind {
			case AttrInt:
				buf.WriteString(strconv.FormatInt(a.Int, 10))
			case AttrFloat:
				buf.WriteString(jsonFloat(a.Float))
			case AttrBool:
				buf.WriteString(strconv.FormatBool(a.Bool))
			default:
				writeJSONString(buf, a.Str)
			}
		}
		buf.WriteByte('}')
	}
	buf.WriteByte('}')
}

// micros renders a duration as decimal microseconds with nanosecond
// precision; the fixed 3-digit form keeps the output byte-stable
// across magnitudes.
func micros(d time.Duration) string {
	return strconv.FormatFloat(float64(d.Nanoseconds())/1e3, 'f', 3, 64)
}

// jsonFloat renders a float attribute; NaN/Inf (not representable in
// JSON) degrade to a quoted string.
func jsonFloat(v float64) string {
	s := strconv.FormatFloat(v, 'g', -1, 64)
	switch s {
	case "NaN", "+Inf", "-Inf", "Inf":
		return "\"" + s + "\""
	}
	return s
}

func writeJSONString(buf *bytes.Buffer, s string) {
	b, err := json.Marshal(s)
	if err != nil {
		buf.WriteString("\"\"")
		return
	}
	buf.Write(b)
}
