package core

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"testing"

	"epoc/internal/logx"
	"epoc/internal/trace"
)

// TestStageBoundaryLogging pins the telemetry contract: a compile with
// a logger attached emits one "stage done" record per pipeline stage
// carrying the stage name and its elapsed time, plus a final "compile
// done" record — and attached request-scoped attributes (trace_id from
// serve) ride on every record.
func TestStageBoundaryLogging(t *testing.T) {
	var buf bytes.Buffer
	log := logx.New(&buf, slog.LevelInfo).With("trace_id", "tid-42")
	tr := trace.New(nil)

	res, err := Compile(bell(), Options{
		Strategy: EPOC,
		Device:   dev(2),
		Mode:     QOCEstimate,
		Log:      log,
		Trace:    tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule == nil {
		t.Fatal("no schedule")
	}

	var records []map[string]any
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var m map[string]any
		if err := dec.Decode(&m); err != nil {
			t.Fatalf("log line not JSON: %v", err)
		}
		records = append(records, m)
	}
	if len(records) == 0 {
		t.Fatal("no log records")
	}

	stagesDone := map[string]bool{}
	var compileDone map[string]any
	for _, m := range records {
		if m["trace_id"] != "tid-42" {
			t.Fatalf("record without the request trace_id: %v", m)
		}
		switch m["msg"] {
		case "stage done":
			stage, _ := m["stage"].(string)
			stagesDone[stage] = true
			if _, ok := m["elapsed_ms"].(float64); !ok {
				t.Fatalf("stage record without elapsed_ms: %v", m)
			}
		case "compile done":
			compileDone = m
		}
	}
	// The EPOC flow's stage boundaries (QOCEstimate still runs all five
	// pipeline stages; zx is on for the EPOC strategy).
	for _, want := range []string{"stage/zx", "stage/partition", "stage/synth", "stage/regroup", "stage/qoc"} {
		if !stagesDone[want] {
			t.Errorf("no 'stage done' record for %s; got %v", want, stagesDone)
		}
	}
	if compileDone == nil {
		t.Fatal("no 'compile done' record")
	}
	if compileDone["strategy"] != "epoc" || compileDone["fidelity"] == nil {
		t.Fatalf("compile done record: %v", compileDone)
	}
}

// A nil logger must leave the compile result identical — logging is
// observability, never behaviour.
func TestNilLoggerCompileUnchanged(t *testing.T) {
	base, err := Compile(bell(), Options{Strategy: EPOC, Device: dev(2), Mode: QOCEstimate})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	logged, err := Compile(bell(), Options{
		Strategy: EPOC, Device: dev(2), Mode: QOCEstimate,
		Log: logx.New(&buf, slog.LevelInfo),
	})
	if err != nil {
		t.Fatal(err)
	}
	if base.Latency != logged.Latency || base.Fidelity != logged.Fidelity {
		t.Fatalf("logging changed the compile: %v vs %v", base.Latency, logged.Latency)
	}
}
