package core

import (
	"math"
	"testing"

	"epoc/internal/circuit"
	"epoc/internal/gate"
	"epoc/internal/hardware"
	"epoc/internal/obs"
	"epoc/internal/pulse"
)

// obsTestCircuit builds a small circuit with several distinct 2-qubit
// block unitaries, so stage 5's concurrent job pool has real work.
func obsTestCircuit() *circuit.Circuit {
	c := circuit.New(4)
	for q := 0; q < 4; q++ {
		c.Append(gate.New(gate.H), q)
	}
	for q := 0; q < 3; q++ {
		c.Append(gate.New(gate.CX), q, q+1)
		c.Append(gate.New(gate.RZ, 0.3+0.4*float64(q)), q+1)
	}
	return c
}

// TestObsConcurrentPrefill exercises stage 5's job pool with
// a shared Recorder; under `go test -race` it proves the obs layer is
// safe against concurrent QOC workers (ISSUE 1 satellite).
func TestObsConcurrentPrefill(t *testing.T) {
	c := obsTestCircuit()
	r := obs.New()
	res, err := Compile(c, Options{
		Strategy:   EPOC,
		Device:     hardware.LinearChain(c.NumQubits),
		Workers:    4,
		Obs:        r,
		GRAPEIters: 60,
		Library:    pulse.NewLibrary(true),
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	if snap.Counters["compiles"] != 1 {
		t.Fatalf("compiles counter: %d", snap.Counters["compiles"])
	}
	if snap.Counters["library/misses"] == 0 {
		t.Fatal("stage 5 recorded no library misses; the worker pool did not run")
	}
	runs := snap.Dists["qoc/grape/iterations"].Count
	if runs == 0 {
		t.Fatal("no GRAPE runs recorded")
	}
	if got := snap.Timers["qoc/pulse"].Count; got != int64(res.Stats.QOCRuns) {
		t.Fatalf("qoc/pulse spans %d, want QOCRuns %d", got, res.Stats.QOCRuns)
	}
	for _, stage := range []string{"compile", "stage/zx", "stage/partition", "stage/synth", "stage/regroup", "stage/qoc"} {
		if snap.Timers[stage].Count == 0 {
			t.Fatalf("stage timer %q missing; timers: %v", stage, snap.TimerNames())
		}
	}
	// Every GRAPE run is one duration-search probe, and records one
	// stop reason and one final fidelity.
	if got := snap.Timers["qoc/duration_probe"].Count; got != runs {
		t.Fatalf("qoc/duration_probe spans %d, want GRAPE runs %d", got, runs)
	}
	if got := snap.Dists["qoc/grape/final_fidelity"].Count; got != runs {
		t.Fatalf("final fidelities %d, want GRAPE runs %d", got, runs)
	}
	stops := snap.Counters["qoc/grape/stop/target"] + snap.Counters["qoc/grape/stop/max_iter"]
	if stops != runs {
		t.Fatalf("stop reasons %d do not cover runs %d", stops, runs)
	}
}

// TestObsDoesNotChangeResults pins that attaching a Recorder is
// observation only: latency, fidelity and stats stay bit-identical.
func TestObsDoesNotChangeResults(t *testing.T) {
	c := obsTestCircuit()
	dev := hardware.LinearChain(c.NumQubits)
	plain, err := Compile(c, Options{Strategy: EPOC, Device: dev, Mode: QOCEstimate})
	if err != nil {
		t.Fatal(err)
	}
	observed, err := Compile(c, Options{Strategy: EPOC, Device: dev, Mode: QOCEstimate, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plain.Latency-observed.Latency) > 0 || math.Abs(plain.Fidelity-observed.Fidelity) > 0 {
		t.Fatalf("observation changed results: %v/%v vs %v/%v",
			plain.Latency, plain.Fidelity, observed.Latency, observed.Fidelity)
	}
	if plain.Stats != observed.Stats {
		t.Fatalf("observation changed stats: %+v vs %+v", plain.Stats, observed.Stats)
	}
}

// TestSynthFallbackCounted pins the explicit (circuit, ok) fallback
// contract: with an impossible synthesis budget every eligible block
// must fall back and be counted, in both Stats and the obs counters.
func TestSynthFallbackCounted(t *testing.T) {
	c := obsTestCircuit()
	r := obs.New()
	res, err := Compile(c, Options{
		Strategy: EPOC,
		Device:   hardware.LinearChain(c.NumQubits),
		Mode:     QOCEstimate,
		Obs:      r,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	if int64(res.Stats.SynthFallback) != snap.Counters["synth/fallbacks"] {
		t.Fatalf("Stats.SynthFallback %d disagrees with obs counter %d",
			res.Stats.SynthFallback, snap.Counters["synth/fallbacks"])
	}

	// Starve the search: every multi-gate block must now fall back.
	r2 := obs.New()
	res2, err := Compile(c, Options{
		Strategy: EPOC,
		Device:   hardware.LinearChain(c.NumQubits),
		Mode:     QOCEstimate,
		Obs:      r2,
		Budgets:  Budgets{SynthNodes: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.SynthFallback == 0 {
		t.Fatal("starved synthesis budget produced no fallbacks")
	}
	snap2 := r2.Snapshot()
	if int64(res2.Stats.SynthFallback) != snap2.Counters["synth/fallbacks"] {
		t.Fatalf("starved run: Stats.SynthFallback %d vs obs counter %d",
			res2.Stats.SynthFallback, snap2.Counters["synth/fallbacks"])
	}
}
