package core

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"epoc/internal/benchcirc"
	"epoc/internal/hardware"
	"epoc/internal/pulse"
	"epoc/internal/qasm"
	"epoc/internal/synth"
)

func TestParallelQOCMatchesSequential(t *testing.T) {
	c, _ := benchcirc.Get("qaoa")
	dev := hardware.LinearChain(c.NumQubits)
	seq, err := Compile(c, Options{Strategy: EPOC, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Compile(c, Options{Strategy: EPOC, Device: dev, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(seq.Latency-par.Latency) > 1e-9 {
		t.Fatalf("parallel QOC changed latency: %v vs %v", seq.Latency, par.Latency)
	}
	if math.Abs(seq.Fidelity-par.Fidelity) > 1e-9 {
		t.Fatalf("parallel QOC changed fidelity: %v vs %v", seq.Fidelity, par.Fidelity)
	}
	if par.Stats.QOCRuns != seq.Stats.QOCRuns {
		t.Fatalf("parallel QOC ran %d searches, sequential %d", par.Stats.QOCRuns, seq.Stats.QOCRuns)
	}
}

// TestParallelSynthDeterministic extends the QOC determinism check to
// the synthesis stage: Workers: 1 and Workers: 8 must produce
// byte-identical schedules, Stats, and QASM round-trip output — the
// contract the parallel block dispatcher and synthesis cache are
// built around.
func TestParallelSynthDeterministic(t *testing.T) {
	c, _ := benchcirc.Get("qaoa")
	dev := hardware.LinearChain(c.NumQubits)
	seq, err := Compile(c, Options{Strategy: EPOC, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Compile(c, Options{Strategy: EPOC, Device: dev, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Stats, par.Stats) {
		t.Fatalf("worker count changed Stats:\n  1: %+v\n  8: %+v", seq.Stats, par.Stats)
	}
	seqJSON, err := json.Marshal(seq.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	parJSON, err := json.Marshal(par.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqJSON, parJSON) {
		t.Fatal("worker count changed the serialized schedule")
	}
	seqQASM, err := qasm.Write(seq.Lowered)
	if err != nil {
		t.Fatal(err)
	}
	parQASM, err := qasm.Write(par.Lowered)
	if err != nil {
		t.Fatal(err)
	}
	if seqQASM != parQASM {
		t.Fatal("worker count changed the lowered circuit's QASM")
	}
}

// TestSynthCacheHitsOnRepeatedBlocks: a circuit with repeated
// structure must serve some blocks from the synthesis cache instead
// of re-running QSearch.
func TestSynthCacheHitsOnRepeatedBlocks(t *testing.T) {
	c, _ := benchcirc.Get("qaoa")
	dev := hardware.LinearChain(c.NumQubits)
	res, err := Compile(c, Options{Strategy: EPOC, Device: dev, Mode: QOCEstimate})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SynthCacheHits == 0 {
		t.Fatalf("no synthesis cache hits on a repeated-block circuit: %+v", res.Stats)
	}
	if res.Stats.SynthCacheMisses == 0 {
		t.Fatal("expected at least one synthesis cache miss")
	}
}

// TestSharedSynthCacheAcrossCompiles: a cache shared between
// compilations reuses synthesis results the way a shared pulse
// library reuses pulses.
func TestSharedSynthCacheAcrossCompiles(t *testing.T) {
	c, _ := benchcirc.Get("ghz")
	dev := hardware.LinearChain(c.NumQubits)
	cache := synth.NewCache()
	first, err := Compile(c, Options{Strategy: EPOC, Device: dev, Mode: QOCEstimate, SynthCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.SynthCacheMisses == 0 {
		t.Fatal("first compile should miss the fresh cache")
	}
	second, err := Compile(c, Options{Strategy: EPOC, Device: dev, Mode: QOCEstimate, SynthCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.SynthCacheMisses != 0 {
		t.Fatalf("second compile missed the warm cache %d times", second.Stats.SynthCacheMisses)
	}
	if second.Latency != first.Latency || second.Fidelity != first.Fidelity {
		t.Fatal("warm cache changed the compiled output")
	}
}

func TestScheduleJSONRoundTrip(t *testing.T) {
	c, _ := benchcirc.Get("ghz")
	dev := hardware.LinearChain(c.NumQubits)
	res, err := Compile(c, Options{Strategy: EPOC, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	var back pulse.Schedule
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.NumQubits != res.Schedule.NumQubits || len(back.Items) != len(res.Schedule.Items) {
		t.Fatal("round trip lost structure")
	}
	if math.Abs(back.Latency-res.Schedule.Latency) > 1e-9 {
		t.Fatal("round trip changed latency")
	}
	if math.Abs(back.TotalFidelity()-res.Schedule.TotalFidelity()) > 1e-12 {
		t.Fatal("round trip changed fidelity")
	}
	// Amplitudes survive for full-QOC pulses.
	found := false
	for _, it := range back.Items {
		if len(it.Pulse.Amps) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no amplitudes serialized")
	}
}

func TestAccQOCMSTPrefill(t *testing.T) {
	c, _ := benchcirc.Get("qaoa")
	dev := hardware.LinearChain(c.NumQubits)
	res, err := Compile(c, Options{Strategy: AccQOC, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fidelity < 0.9 {
		t.Fatalf("AccQOC MST flow fidelity %v", res.Fidelity)
	}
	// On a fresh library every miss is one MST job and one QOC run.
	if st := res.Stats; st.QOCRuns == 0 || st.LibraryMisses != st.QOCRuns {
		t.Fatalf("MST flow: %d library misses, %d QOC runs; want equal and nonzero", st.LibraryMisses, st.QOCRuns)
	}
}

// TestLibraryCountsModeInvariant: on a fresh library a compile counts
// the same pulse-library hits and misses in estimate and full mode —
// the first op of each distinct unitary misses, every other op hits —
// whether its misses run on the worker pool or along AccQOC's MST.
func TestLibraryCountsModeInvariant(t *testing.T) {
	c, _ := benchcirc.Get("ghz")
	dev := hardware.LinearChain(c.NumQubits)
	for _, strat := range []Strategy{EPOC, AccQOC} {
		var counts [2][2]int
		for i, mode := range []QOCMode{QOCEstimate, QOCFull} {
			res, err := Compile(c, Options{Strategy: strat, Device: dev, Mode: mode, GRAPEIters: 40})
			if err != nil {
				t.Fatal(err)
			}
			counts[i] = [2]int{res.Stats.LibraryHits, res.Stats.LibraryMisses}
		}
		if counts[0] != counts[1] || counts[0][0] == 0 || counts[0][1] == 0 {
			t.Errorf("%s: hits/misses estimate %v, full %v; want equal, both nonzero", strat, counts[0], counts[1])
		}
	}
}
