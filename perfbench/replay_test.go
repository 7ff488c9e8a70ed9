package main

import (
	"strings"
	"testing"

	"epoc/internal/circuit"
	"epoc/internal/core"
	"epoc/internal/gate"
	"epoc/internal/pulse"
	"epoc/internal/synth"
)

// TestReplayCrossCheck replays a full-mode compile of a 2-qubit circuit
// and requires it to agree with the pipeline, then checks that a result
// whose counts disagree with its replay is caught.
func TestReplayCrossCheck(t *testing.T) {
	c := circuit.New(2)
	c.Append(gate.New(gate.H), 0)
	c.Append(gate.New(gate.CX), 0, 1)
	c.Append(gate.New(gate.RZ, 0.7), 1)
	c.Append(gate.New(gate.CX), 0, 1)
	c.Append(gate.New(gate.H), 1)
	res, err := core.Compile(c, compileOptions(core.QOCFull, 2))
	if err != nil {
		t.Fatal(err)
	}
	var acc layerCounts
	rep, err := replay(newTracer(), 1, c, res, core.QOCFull, &acc, synth.NewCache(), pulse.NewLibrary(true))
	if err != nil {
		t.Fatal(err)
	}
	if bad := crossCheck("bell", rep, res); len(bad) > 0 {
		t.Fatalf("replay disagrees with the pipeline: %v", bad)
	}
	if acc.qocSearches == 0 || acc.qocProbes < acc.qocSearches || acc.qocIters == 0 {
		t.Errorf("qoc replay did no work: %+v", acc)
	}
	if !rep.zxMatched {
		t.Error("zx replay of a 2-qubit circuit should match the pipeline's stage 1")
	}

	for _, tc := range []struct {
		want   string
		tamper func(*core.Result)
	}{
		{"schedule_ns", func(r *core.Result) { r.Latency += 16 }},
		{"qoc.searches", func(r *core.Result) { r.Stats.QOCRuns++ }},
		{"pulses", func(r *core.Result) { r.Stats.PulseCount++ }},
		{"cnots", func(r *core.Result) { r.Stats.CNOTsAfter++ }},
	} {
		bad := *res
		tc.tamper(&bad)
		got := crossCheck("bell", rep, &bad)
		if len(got) != 1 || !strings.Contains(got[0], tc.want) {
			t.Errorf("tampered %s: cross-check reported %v", tc.want, got)
		}
	}
}
