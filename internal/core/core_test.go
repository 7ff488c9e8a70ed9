package core

import (
	"testing"

	"epoc/internal/benchcirc"
	"epoc/internal/circuit"
	"epoc/internal/gate"
	"epoc/internal/hardware"
	"epoc/internal/pulse"
)

func dev(n int) *hardware.Device { return hardware.LinearChain(n) }

func bell() *circuit.Circuit {
	c := circuit.New(2)
	c.Append(gate.New(gate.H), 0)
	c.Append(gate.New(gate.CX), 0, 1)
	return c
}

func TestGateBasedBell(t *testing.T) {
	res, err := Compile(bell(), Options{Strategy: GateBased, Device: dev(2)})
	if err != nil {
		t.Fatal(err)
	}
	// H (35.5) then CX (300) serially.
	if res.Latency != 335.5 {
		t.Fatalf("latency %v", res.Latency)
	}
	if res.Fidelity >= 1 || res.Fidelity < 0.98 {
		t.Fatalf("fidelity %v", res.Fidelity)
	}
	if res.Stats.PulseCount != 2 {
		t.Fatalf("pulses %d", res.Stats.PulseCount)
	}
}

func TestGateBasedVirtualRZ(t *testing.T) {
	c := circuit.New(1)
	c.Append(gate.New(gate.RZ, 0.5), 0)
	res, err := Compile(c, Options{Strategy: GateBased, Device: dev(1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency != 0 || res.Stats.PulseCount != 0 {
		t.Fatalf("virtual RZ scheduled: %v", res.Latency)
	}
}

func TestGateBasedRejectsBlocks(t *testing.T) {
	c := circuit.New(1)
	c.Append(gate.NewUnitary(gate.New(gate.X).Matrix()), 0)
	if _, err := Compile(c, Options{Strategy: GateBased, Device: dev(1)}); err == nil {
		t.Fatal("expected error for block gate")
	}
}

func TestEPOCBellFullQOC(t *testing.T) {
	res, err := Compile(bell(), Options{Strategy: EPOC, Device: dev(2), GRAPEIters: 300})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fidelity < 0.99 {
		t.Fatalf("EPOC bell fidelity %v", res.Fidelity)
	}
	if res.Latency <= 0 {
		t.Fatal("no latency")
	}
	// The whole Bell circuit should regroup into a single 2q pulse and
	// beat the 335.5 ns gate-based latency.
	if res.Latency >= 335.5 {
		t.Fatalf("EPOC latency %v not better than gate-based", res.Latency)
	}
}

func TestStrategyLatencyOrdering(t *testing.T) {
	// On a QAOA workload the paper's ordering must hold:
	// gate-based > accqoc/paqoc > epoc.
	c, _ := benchcirc.Get("qaoa")
	lib := map[Strategy]float64{}
	for _, s := range []Strategy{GateBased, AccQOC, EPOC} {
		res, err := Compile(c, Options{Strategy: s, Device: dev(c.NumQubits), Mode: QOCEstimate})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		lib[s] = res.Latency
	}
	if !(lib[GateBased] > lib[AccQOC]) {
		t.Fatalf("gate-based (%v) should exceed accqoc (%v)", lib[GateBased], lib[AccQOC])
	}
	if !(lib[AccQOC] > lib[EPOC]) {
		t.Fatalf("accqoc (%v) should exceed epoc (%v)", lib[AccQOC], lib[EPOC])
	}
}

func TestGroupingBeatsNoGrouping(t *testing.T) {
	c, _ := benchcirc.Get("qaoa")
	resNo, err := Compile(c, Options{Strategy: EPOCNoGroup, Device: dev(c.NumQubits), Mode: QOCEstimate})
	if err != nil {
		t.Fatal(err)
	}
	resYes, err := Compile(c, Options{Strategy: EPOC, Device: dev(c.NumQubits), Mode: QOCEstimate})
	if err != nil {
		t.Fatal(err)
	}
	if resYes.Latency >= resNo.Latency {
		t.Fatalf("grouping (%v) should beat no-grouping (%v)", resYes.Latency, resNo.Latency)
	}
	if resYes.Stats.PulseCount >= resNo.Stats.PulseCount {
		t.Fatalf("grouping should emit fewer pulses (%d vs %d)",
			resYes.Stats.PulseCount, resNo.Stats.PulseCount)
	}
	if resYes.Fidelity < resNo.Fidelity {
		t.Fatalf("grouping fidelity %v below no-grouping %v", resYes.Fidelity, resNo.Fidelity)
	}
}

func TestSharedLibraryHits(t *testing.T) {
	c, _ := benchcirc.Get("ghz")
	shared := pulse.NewLibrary(true)
	o := Options{Strategy: EPOC, Device: dev(c.NumQubits), Mode: QOCEstimate, Library: shared}
	first, err := Compile(c, o)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.LibraryMisses == 0 {
		t.Fatal("first compile into an empty library missed nothing")
	}
	res, err := Compile(c, o)
	if err != nil {
		t.Fatal(err)
	}
	// Stats count this compile's lookups, not the library's lifetime.
	if res.Stats.LibraryMisses != 0 || res.Stats.LibraryHits == 0 {
		t.Fatalf("second compile Stats: %d library hits, %d misses; want > 0 and 0",
			res.Stats.LibraryHits, res.Stats.LibraryMisses)
	}
}

func TestZXStageReducesDepth(t *testing.T) {
	c, _ := benchcirc.Get("vqe")
	res, err := Compile(c, Options{Strategy: EPOC, Device: dev(c.NumQubits), Mode: QOCEstimate})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DepthAfterZX >= res.Stats.DepthBefore {
		t.Fatalf("ZX did not reduce VQE depth: %d -> %d",
			res.Stats.DepthBefore, res.Stats.DepthAfterZX)
	}
}

func TestZXAblationToggle(t *testing.T) {
	c, _ := benchcirc.Get("vqe")
	off := false
	res, err := Compile(c, Options{Strategy: EPOC, Device: dev(c.NumQubits), Mode: QOCEstimate, UseZX: &off})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DepthAfterZX != res.Stats.DepthBefore {
		t.Fatal("UseZX=false still changed depth")
	}
}

func TestAllStrategiesOnAllBenchmarksEstimateMode(t *testing.T) {
	for _, name := range benchcirc.Names() {
		c, _ := benchcirc.Get(name)
		for _, s := range Strategies() {
			res, err := Compile(c, Options{Strategy: s, Device: dev(c.NumQubits), Mode: QOCEstimate})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, s, err)
			}
			if res.Latency <= 0 {
				t.Fatalf("%s/%s: zero latency", name, s)
			}
			if res.Fidelity <= 0 || res.Fidelity > 1 {
				t.Fatalf("%s/%s: fidelity %v", name, s, res.Fidelity)
			}
		}
	}
}

func TestEPOCFullQOCOnGHZ(t *testing.T) {
	c := circuit.New(3)
	c.Append(gate.New(gate.H), 0)
	c.Append(gate.New(gate.CX), 0, 1)
	c.Append(gate.New(gate.CX), 1, 2)
	res, err := Compile(c, Options{Strategy: EPOC, Device: dev(3), GRAPEIters: 300})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fidelity < 0.99 {
		t.Fatalf("GHZ3 fidelity %v", res.Fidelity)
	}
	if res.Stats.QOCRuns == 0 {
		t.Fatal("full mode ran no GRAPE searches")
	}
}

func TestUnknownStrategyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_, _ = Compile(bell(), Options{Strategy: "bogus", Device: dev(2)})
}

func TestMissingDevicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_, _ = Compile(bell(), Options{Strategy: EPOC})
}

func TestCompileTimeRecorded(t *testing.T) {
	res, err := Compile(bell(), Options{Strategy: GateBased, Device: dev(2)})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompileTime <= 0 {
		t.Fatal("compile time not recorded")
	}
}
