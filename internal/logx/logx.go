// Package logx is the repo's structured logging layer: a thin,
// nil-safe wrapper over log/slog's JSON handler. One Logger is built
// at the process edge (cmd/epoc-serve's -log-level flag) and threaded
// down — through serve's request lifecycle and core's stage
// boundaries — as a plain field, the same way obs.Recorder and
// trace.Tracer travel.
//
// The wrapper exists for two properties slog alone does not give us:
//
//   - Nil safety, matching the obs/trace contract: every method on a
//     nil *Logger is a no-op, so instrumented code needs no
//     conditionals and a library user who never asks for logs pays a
//     single nil check.
//   - Correlation by convention: With("trace_id", ...) at request
//     admission puts the response's Epoc-Trace-Id on every record the
//     request writes, from the access log through the core pipeline's
//     stage records, so one grep joins them during an incident
//     (DESIGN.md §15).
//
// logx is an import leaf: it takes IDs as plain strings, so every
// layer can carry a logger without new DAG edges.
package logx

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// Logger emits JSON records to the writer it was built with. The zero
// value is not useful; nil is — all methods no-op.
type Logger struct {
	s *slog.Logger
}

// New returns a Logger writing one JSON object per line to w at the
// given minimum level.
func New(w io.Writer, level slog.Leveler) *Logger {
	h := slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level})
	return &Logger{s: slog.New(h)}
}

// ParseLevel maps a -log-level flag value to a slog.Level. "off" is
// handled by the caller (use a nil *Logger); this parser covers the
// emitting levels. There is no "debug": no program logs below info,
// so that level would behave exactly as info.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("unknown log level %q (want info, warn, error, or off)", s)
	}
}

// Enabled reports whether the logger emits anything at all — false
// only on nil. Hot paths use it to guard attr-heavy records, since
// building the variadic attr slice costs an allocation even when the
// receiver is nil:
//
//	if log.Enabled() {
//	    log.Info("stage done", "stage", name, "elapsed_ms", ms)
//	}
func (l *Logger) Enabled() bool {
	return l != nil
}

// With returns a Logger whose records all carry the given key/value
// attributes — the request-scoped pattern: one With("trace_id", id) at
// admission, then every downstream record is correlated for free. Nil
// receivers return nil.
func (l *Logger) With(args ...any) *Logger {
	if l == nil {
		return nil
	}
	return &Logger{s: l.s.With(args...)}
}

// Info logs at LevelInfo; no-op on nil.
func (l *Logger) Info(msg string, args ...any) {
	if l == nil {
		return
	}
	l.s.Info(msg, args...)
}

// Warn logs at LevelWarn; no-op on nil.
func (l *Logger) Warn(msg string, args ...any) {
	if l == nil {
		return
	}
	l.s.Warn(msg, args...)
}

// Error logs at LevelError; no-op on nil.
func (l *Logger) Error(msg string, args ...any) {
	if l == nil {
		return
	}
	l.s.Error(msg, args...)
}
