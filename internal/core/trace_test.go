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
	// Estimate mode still attributes per-pulse spans.
	spans := spanCounts(t, tr.ChromeTrace())
	if spans["qoc/pulse"] == 0 {
		t.Fatalf("no qoc/pulse spans in estimate mode: %v", spans)
	}
	if spans["compile"] != 1 {
		t.Fatalf("compile span count: %v", spans["compile"])
	}
}

// TestTraceBlockSpansMatchObsTimer pins that trace spans and obs timers
// agree by construction: every region is opened through one
// trace.Region handle, so every span name in the Chrome export has an
// obs timer of the same name and count. This is what lets the run
// manifest carry the timers alone. It holds in estimate mode and in
// full mode (where the pulse and duration-probe regions run GRAPE),
// at one worker and at four. Under the real clock the durations agree
// only approximately; the README's epoc CLI walkthrough checks them.
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
		for _, workers := range []int{1, 4} {
			c := obsTestCircuit()
			tr := trace.New(nil)
			rec := obs.New()
			_, err := Compile(c, Options{
				Strategy:   EPOC,
				Device:     hardware.LinearChain(c.NumQubits),
				Mode:       tc.mode,
				GRAPEIters: 40,
				Workers:    workers,
				Trace:      tr,
				Obs:        rec,
			})
			if err != nil {
				t.Fatal(err)
			}
			snap := rec.Snapshot()
			spans := spanCounts(t, tr.ChromeTrace())
			for name, n := range spans {
				if got := snap.Timers[name].Count; got != n {
					t.Errorf("mode %d, workers %d, %s: %d trace spans, %d obs timer observations", tc.mode, workers, name, n, got)
				}
			}
			for _, name := range tc.regions {
				if spans[name] == 0 {
					t.Errorf("mode %d, workers %d: no %s span", tc.mode, workers, name)
				}
			}
			if spans["qoc/pulse"] == 0 || snap.Counters["pulses"] == 0 {
				t.Fatalf("missing pulse instrumentation: spans=%d pulses=%d", spans["qoc/pulse"], snap.Counters["pulses"])
			}
		}
	}
}

// spanCounts tallies a Chrome export's spans by name.
func spanCounts(t *testing.T, raw []byte) map[string]int64 {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	n := map[string]int64{}
	for _, e := range doc.TraceEvents {
		n[e.Name]++
	}
	return n
}
