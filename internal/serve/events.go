package serve

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"epoc/internal/obs"
)

// eventLog is a job's progress stream: an append-only event list with
// broadcast wakeups, fed by the job's obs recorder sink (GRAPE
// convergence, duration-search probes) and the server's lifecycle
// events (queued, compiling, done). Unlike the recorder's snapshot
// buffer it is unbounded per job — jobs are bounded by RetainJobs and
// a compile's event volume is bounded by its budgets — and it
// supports any number of late or concurrent subscribers: each replays
// from the start, then follows live until close.
type eventLog struct {
	mu      sync.Mutex
	events  []obs.Event
	changed chan struct{} // closed and replaced on every append; closed for good on close
	closed  bool
}

func newEventLog() *eventLog {
	return &eventLog{changed: make(chan struct{})}
}

// append adds an event and wakes every waiting subscriber. Appends
// after close are dropped (the final lifecycle event wins the race
// against a last optimizer event by construction: the recorder sink
// is synchronous and complete() runs after the compile returns).
func (l *eventLog) append(e obs.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.events = append(l.events, e)
	close(l.changed)
	l.changed = make(chan struct{})
}

// close ends the stream; subscribers drain what remains and return.
func (l *eventLog) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	close(l.changed)
}

// next returns the events from position i onward, the channel to wait
// on for more, and whether the log is complete.
func (l *eventLog) next(i int) (evs []obs.Event, wait <-chan struct{}, done bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i < len(l.events) {
		evs = append(evs, l.events[i:]...)
	}
	return evs, l.changed, l.closed
}

// StreamEvent is one line of the GET /v1/compile/{id}/events body.
// The stream is application/x-ndjson: one JSON object per line,
// flushed as produced, ending with a line where Done is true.
type StreamEvent struct {
	Seq   int       `json:"seq"`
	Time  time.Time `json:"time,omitempty"`
	Stage string    `json:"stage,omitempty"`
	Msg   string    `json:"msg,omitempty"`

	// Final-line fields.
	Done   bool   `json:"done,omitempty"`
	Status string `json:"status,omitempty"`
}

// handleEvents streams a job's progress as JSON lines: replay from
// the first event, follow live, terminate with {"done":true} once the
// job completes. Disconnecting the stream does not cancel the compile
// — only the compile request's own connection owns that.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, &apiError{Status: http.StatusNotFound, Code: "unknown_job",
			Message: "no such compile job"})
		return
	}
	w.Header().Set(TraceIDHeader, j.traceID)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	enc := json.NewEncoder(w)
	seq := 0
	for {
		evs, wait, done := j.events.next(seq)
		for _, e := range evs {
			line := StreamEvent{Seq: seq, Time: e.Time, Stage: e.Stage, Msg: e.Msg}
			seq++
			if err := enc.Encode(line); err != nil {
				return // subscriber gone
			}
		}
		if len(evs) > 0 && flusher != nil {
			flusher.Flush()
		}
		if done {
			state, _, _, _, _, _ := j.snapshotState()
			// Terminal line; encode errors mean the subscriber left.
			_ = enc.Encode(StreamEvent{Seq: seq, Done: true, Status: state})
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		select {
		case <-wait:
		case <-r.Context().Done():
			return
		}
	}
}
