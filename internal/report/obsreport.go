package report

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"epoc/internal/obs"
)

// RenderSnapshot renders an observability snapshot as aligned text
// tables: timers (hottest first), counters, value distributions, and
// the bounded events. A nil snapshot renders to "".
func RenderSnapshot(s *obs.Snapshot) string {
	if s == nil {
		return ""
	}
	var b strings.Builder

	if len(s.Timers) > 0 {
		tb := NewTable("timers (hottest first)", "name", "count", "total", "mean", "min", "max")
		for _, name := range s.TimerNames() {
			t := s.Timers[name]
			tb.AddRow(name, t.Count,
				roundDur(t.Total), roundDur(t.Mean()), roundDur(t.Min), roundDur(t.Max))
		}
		b.WriteString(tb.String())
	}

	if len(s.Counters) > 0 {
		tb := NewTable("counters", "name", "value")
		for _, name := range s.CounterNames() {
			tb.AddRow(name, s.Counters[name])
		}
		b.WriteString(tb.String())
	}

	if len(s.Dists) > 0 {
		tb := NewTable("distributions", "name", "count", "sum", "mean", "min", "max")
		for _, name := range s.DistNames() {
			d := s.Dists[name]
			tb.AddRow(name, d.Count,
				fmt.Sprintf("%.4g", d.Sum), fmt.Sprintf("%.4g", d.Mean()),
				fmt.Sprintf("%.4g", d.Min), fmt.Sprintf("%.4g", d.Max))
		}
		b.WriteString(tb.String())
	}

	if len(s.Events) > 0 {
		fmt.Fprintf(&b, "== events (%d", len(s.Events))
		if s.EventsDropped > 0 {
			fmt.Fprintf(&b, ", %d dropped", s.EventsDropped)
		}
		b.WriteString(") ==\n")
		// Events from concurrent workers land in the recorder in
		// scheduling order; render them sorted by (stage, message) so a
		// deterministic workload prints byte-stable -stats output at any
		// worker count.
		events := append([]obs.Event(nil), s.Events...)
		sort.SliceStable(events, func(i, j int) bool {
			if events[i].Stage != events[j].Stage {
				return events[i].Stage < events[j].Stage
			}
			return events[i].Msg < events[j].Msg
		})
		for _, e := range events {
			fmt.Fprintf(&b, "  %-14s %s\n", e.Stage, e.Msg)
		}
	}
	return b.String()
}

// roundDur trims a duration to a readable precision for tables.
func roundDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.Round(time.Nanosecond).String()
	}
}
