package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"epoc/internal/faultclock"
	"epoc/internal/hardware"
	"epoc/internal/obs"
	"epoc/internal/pulse"
	"epoc/internal/trace"
)

// traceCompile runs one EPOC compile of the obs test circuit with a
// fake-clock tracer attached and returns the Chrome export.
func traceCompile(t *testing.T, workers int) []byte {
	t.Helper()
	c := obsTestCircuit()
	tr := trace.New(faultclock.NewFake())
	_, err := Compile(c, Options{
		Strategy:   EPOC,
		Device:     hardware.LinearChain(c.NumQubits),
		Workers:    workers,
		Trace:      tr,
		GRAPEIters: 40,
		Library:    pulse.NewLibrary(true),
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr.ChromeTrace()
}

// TestTraceGoldenWorkerInvariant is the golden determinism test: under
// the fake clock a full-QOC EPOC compile exports byte-identical Chrome
// traces at Workers:1 and Workers:8. Goroutine interleaving in the
// stage-3 synthesis pool and the stage-5 job pool must not leak
// into the artifact — spans are ordered by their deterministic
// attributes, and zero-width spans all collapse onto one track.
func TestTraceGoldenWorkerInvariant(t *testing.T) {
	serial := traceCompile(t, 1)
	parallel := traceCompile(t, 8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("trace export depends on worker count\nWorkers:1 (%d bytes):\n%s\nWorkers:8 (%d bytes):\n%s",
			len(serial), serial, len(parallel), parallel)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Tid  float64 `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(serial, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	names := map[string]int{}
	for _, e := range doc.TraceEvents {
		names[e.Name]++
		if e.Tid != 0 {
			t.Fatalf("fake-clock span %q on track %v, want 0", e.Name, e.Tid)
		}
	}
	for _, want := range []string{"compile", "stage/zx", "stage/partition", "stage/synth",
		"stage/synth/block", "stage/regroup", "stage/qoc", "qoc/pulse", "qoc/duration_probe"} {
		if names[want] == 0 {
			t.Fatalf("no %q span in the trace; got %v", want, names)
		}
	}
}

// TestTraceDoesNotChangeResults pins that attaching a tracer is
// observation only, like the obs recorder.
func TestTraceDoesNotChangeResults(t *testing.T) {
	c := obsTestCircuit()
	dev := hardware.LinearChain(c.NumQubits)
	plain, err := Compile(c, Options{Strategy: EPOC, Device: dev, Mode: QOCEstimate})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(nil)
	traced, err := Compile(c, Options{Strategy: EPOC, Device: dev, Mode: QOCEstimate, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Latency != traced.Latency || plain.Fidelity != traced.Fidelity {
		t.Fatalf("tracing changed results: %v/%v vs %v/%v",
			plain.Latency, plain.Fidelity, traced.Latency, traced.Fidelity)
	}
	if plain.Stats != traced.Stats {
		t.Fatalf("tracing changed stats: %+v vs %+v", plain.Stats, traced.Stats)
	}
	if tr.Summary().Spans == 0 {
		t.Fatal("tracer recorded nothing")
	}
	// Estimate mode still attributes per-pulse spans.
	sum := tr.Summary()
	if sum.ByName["qoc/pulse"].Count == 0 {
		t.Fatalf("no qoc/pulse spans in estimate mode: %v", sum.ByName)
	}
	if sum.ByName["compile"].Count != 1 {
		t.Fatalf("compile span count: %v", sum.ByName["compile"])
	}
}

// TestTraceBlockSpansMatchObsTimer pins that trace spans and obs
// timers agree by construction: every region is opened through one
// trace.Region handle, so for each region name the span count equals
// the timer count, in estimate mode and in full mode (where the pulse
// and duration-probe regions run GRAPE). Under the fake clock (no time
// advances) their durations agree trivially; the real-clock 5%
// agreement is checked by the epoc CLI walkthrough in the README.
func TestTraceBlockSpansMatchObsTimer(t *testing.T) {
	stages := []string{"compile", "stage/zx", "stage/partition", "stage/synth",
		"stage/synth/block", "stage/regroup", "stage/qoc", "qoc/pulse"}
	for _, tc := range []struct {
		mode    QOCMode
		regions []string
	}{
		{QOCEstimate, stages},
		{QOCFull, append(stages, "qoc/duration_probe")},
	} {
		c := obsTestCircuit()
		tr := trace.New(nil)
		rec := obs.New()
		_, err := Compile(c, Options{
			Strategy:   EPOC,
			Device:     hardware.LinearChain(c.NumQubits),
			Mode:       tc.mode,
			GRAPEIters: 40,
			Trace:      tr,
			Obs:        rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		snap := rec.Snapshot()
		sum := tr.Summary()
		for _, name := range tc.regions {
			spans, timers := sum.ByName[name].Count, snap.Timers[name].Count
			if spans == 0 || spans != timers {
				t.Errorf("mode %d, region %s: %d trace spans, %d obs timer observations", tc.mode, name, spans, timers)
			}
		}
		if got, want := sum.ByName["qoc/pulse"].Count, int64(snap.Counters["pulses"]); got == 0 || want == 0 {
			t.Fatalf("missing pulse instrumentation: spans=%d pulses=%d", got, want)
		}
	}
}
