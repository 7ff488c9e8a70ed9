package logx

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
)

func decodeLines(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	dec := json.NewDecoder(buf)
	for dec.More() {
		var m map[string]any
		if err := dec.Decode(&m); err != nil {
			t.Fatalf("decode log line: %v", err)
		}
		out = append(out, m)
	}
	return out
}

func TestJSONRecords(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, slog.LevelInfo)
	l.Info("compile done", "stage", "zx", "elapsed_ms", 12.5)
	l.s.Debug("suppressed below level")
	l.Error("boom", "err", "synth failed")

	lines := decodeLines(t, &buf)
	if len(lines) != 2 {
		t.Fatalf("got %d records, want 2: %v", len(lines), lines)
	}
	if lines[0]["msg"] != "compile done" || lines[0]["stage"] != "zx" || lines[0]["elapsed_ms"] != 12.5 {
		t.Fatalf("record: %v", lines[0])
	}
	if lines[1]["level"] != "ERROR" {
		t.Fatalf("record: %v", lines[1])
	}
}

func TestWithCarriesAttrs(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, slog.LevelInfo).With("trace_id", "abc123")
	l.Info("queued")
	l.With("span", "s4").Info("stage done")

	lines := decodeLines(t, &buf)
	if len(lines) != 2 {
		t.Fatalf("got %d records", len(lines))
	}
	for _, m := range lines {
		if m["trace_id"] != "abc123" {
			t.Fatalf("missing trace_id: %v", m)
		}
	}
	if lines[1]["span"] != "s4" {
		t.Fatalf("missing span: %v", lines[1])
	}
}

func TestNilLoggerIsSafe(t *testing.T) {
	var l *Logger
	l.Info("x", "k", "v")
	l.Warn("x")
	l.Error("x")
	if l.With("k", "v") != nil {
		t.Fatal("With on nil must return nil")
	}
}

// The nil logger must match the obs/trace disabled-path budget:
// threading it through the pipeline costs nothing. Variadic attrs
// still build a []any at the call site, so hot paths guard attr-heavy
// records with Enabled() — this pins the bare-call and guarded paths.
func TestNilLoggerNoAllocs(t *testing.T) {
	var l *Logger
	allocs := testing.AllocsPerRun(1000, func() {
		l.Info("stage done")
		if l.Enabled() {
			l.Info("stage done", "stage", "zx")
		}
	})
	if allocs != 0 {
		t.Fatalf("nil logger allocated %.1f times per op, want 0", allocs)
	}
}

func TestEnabled(t *testing.T) {
	var nilL *Logger
	if nilL.Enabled() {
		t.Fatal("nil logger must report disabled")
	}
	if !New(&bytes.Buffer{}, slog.LevelInfo).Enabled() {
		t.Fatal("real logger must report enabled")
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"info":  slog.LevelInfo,
		"":      slog.LevelInfo,
		"WARN":  slog.LevelWarn,
		"error": slog.LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	// debug is rejected: nothing logs below info, so it would act as info.
	for _, in := range []string{"loud", "debug"} {
		_, err := ParseLevel(in)
		if err == nil {
			t.Fatalf("ParseLevel(%q) must be rejected", in)
		}
		if want := "want info, warn, error, or off"; !strings.Contains(err.Error(), want) {
			t.Fatalf("ParseLevel(%q) error %q does not list the valid levels", in, err)
		}
	}
}
