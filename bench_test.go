package epoc

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (see DESIGN.md §4 for the experiment index) plus
// the ablations DESIGN.md calls out and micro-benchmarks of the hot
// kernels. cmd/epoc-bench prints the same data as human-readable
// tables.
//
// Figure-level benchmarks run their full experiment once per iteration
// (b.N is 1 in practice) and attach the headline numbers as custom
// metrics; micro-benchmarks use b.N conventionally.

import (
	"sync"
	"testing"

	"epoc/internal/benchcirc"
	"epoc/internal/circuit"
	"epoc/internal/core"
	"epoc/internal/gate"
	"epoc/internal/hardware"
	"epoc/internal/linalg"
	"epoc/internal/partition"
	"epoc/internal/pulse"
	"epoc/internal/qoc"
	"epoc/internal/report"
	"epoc/internal/sim"
	"epoc/internal/synth"
	"epoc/internal/zx"

	"math/rand"
)

// --- Figure 5: ZX depth optimization ---

func BenchmarkFig5ZXDepthReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var ratios []float64
		for seed := int64(1); seed <= 34; seed++ {
			n := 4 + int(seed)%6
			depth := 20 + int(seed*7)%50
			c := benchcirc.RandomCircuit(n, depth, seed)
			opt := core.DepthOptimize(c)
			ratios = append(ratios, float64(c.Depth())/float64(maxi(1, opt.Depth())))
		}
		b.ReportMetric(report.Mean(ratios), "avg-depth-reduction-x")
	}
}

// --- Figures 8-10: grouping study (shared, computed once) ---

type groupingRow struct {
	latNo, latYes   float64
	timeNo, timeYes float64
	fidNo, fidYes   float64
}

var (
	groupingOnce sync.Once
	groupingData map[string]groupingRow
)

func groupingStudy(b *testing.B) map[string]groupingRow {
	groupingOnce.Do(func() {
		groupingData = map[string]groupingRow{}
		for _, name := range benchcirc.Names() {
			c, err := benchcirc.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			dev := hardware.LinearChain(c.NumQubits)
			resNo, err := core.Compile(c, core.Options{
				Strategy: core.EPOCNoGroup, Device: dev, Library: pulse.NewLibrary(true)})
			if err != nil {
				b.Fatal(err)
			}
			resYes, err := core.Compile(c, core.Options{
				Strategy: core.EPOC, Device: dev, Library: pulse.NewLibrary(true)})
			if err != nil {
				b.Fatal(err)
			}
			groupingData[name] = groupingRow{
				latNo: resNo.Latency, latYes: resYes.Latency,
				timeNo: resNo.CompileTime.Seconds(), timeYes: resYes.CompileTime.Seconds(),
				fidNo: resNo.Fidelity, fidYes: resYes.Fidelity,
			}
		}
	})
	return groupingData
}

func BenchmarkFig8GroupingLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		data := groupingStudy(b)
		var reductions []float64
		for _, r := range data {
			reductions = append(reductions, report.PercentChange(r.latNo, r.latYes))
		}
		b.ReportMetric(report.Mean(reductions), "avg-latency-reduction-%")
	}
}

func BenchmarkFig9CompileTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		data := groupingStudy(b)
		var overheads []float64
		for _, r := range data {
			if r.timeNo > 0 {
				overheads = append(overheads, 100*(r.timeYes-r.timeNo)/r.timeNo)
			}
		}
		b.ReportMetric(report.Mean(overheads), "avg-compile-overhead-%")
	}
}

func BenchmarkFig10Fidelity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		data := groupingStudy(b)
		var gains []float64
		for _, r := range data {
			gains = append(gains, 100*(r.fidYes-r.fidNo)/r.fidNo)
		}
		b.ReportMetric(report.Mean(gains), "avg-fidelity-gain-%")
	}
}

// --- Table 1: strategy comparison ---

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		libPAQOC := pulse.NewLibrary(false)
		libEPOC := pulse.NewLibrary(true)
		var vsGate, vsPAQOC []float64
		for _, name := range benchcirc.Table1Names() {
			c, err := benchcirc.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			dev := hardware.LinearChain(c.NumQubits)
			gb, err := core.Compile(c, core.Options{Strategy: core.GateBased, Device: dev})
			if err != nil {
				b.Fatal(err)
			}
			pq, err := core.Compile(c, core.Options{Strategy: core.PAQOC, Device: dev, Library: libPAQOC})
			if err != nil {
				b.Fatal(err)
			}
			ep, err := core.Compile(c, core.Options{Strategy: core.EPOC, Device: dev, Library: libEPOC})
			if err != nil {
				b.Fatal(err)
			}
			vsGate = append(vsGate, report.PercentChange(gb.Latency, ep.Latency))
			vsPAQOC = append(vsPAQOC, report.PercentChange(pq.Latency, ep.Latency))
		}
		b.ReportMetric(report.Mean(vsGate), "latency-vs-gate-%")
		b.ReportMetric(report.Mean(vsPAQOC), "latency-vs-paqoc-%")
	}
}

// --- §4 scale test ---

func BenchmarkLargeScale160Q(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := benchcirc.RandomLayered(160, 8, 1)
		res, err := core.Compile(c, core.Options{
			Strategy: core.EPOC,
			Device:   hardware.LinearChain(160),
			Mode:     core.QOCEstimate,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Latency, "latency-ns")
		b.ReportMetric(float64(res.Stats.PulseCount), "pulses")
	}
}

// --- Ablations (DESIGN.md §5) ---

func BenchmarkAblationPartitionLimit(b *testing.B) {
	c, _ := benchcirc.Get("qaoa")
	dev := hardware.LinearChain(c.NumQubits)
	for _, lim := range []int{2, 3} {
		lim := lim
		b.Run(map[int]string{2: "limit2", 3: "limit3"}[lim], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Compile(c, core.Options{
					Strategy: core.EPOC, Device: dev, Mode: core.QOCEstimate,
					PartitionMaxQubits: lim, RegroupMaxQubits: lim,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Latency, "latency-ns")
			}
		})
	}
}

func BenchmarkAblationPulseLibrary(b *testing.B) {
	ghz, _ := benchcirc.Get("ghz")
	dev := hardware.LinearChain(ghz.NumQubits)
	for _, phase := range []bool{false, true} {
		phase := phase
		name := "exactMatch"
		if phase {
			name = "globalPhase"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lib := pulse.NewLibrary(phase)
				res, err := core.Compile(ghz, core.Options{Strategy: core.EPOC, Device: dev, Library: lib})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Stats.QOCRuns), "grape-runs")
				b.ReportMetric(float64(res.Stats.LibraryHits), "library-hits")
			}
		})
	}
}

func BenchmarkAblationZXPass(b *testing.B) {
	c, _ := benchcirc.Get("vqe")
	dev := hardware.LinearChain(c.NumQubits)
	for _, useZX := range []bool{false, true} {
		useZX := useZX
		name := "zxOff"
		if useZX {
			name = "zxOn"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				z := useZX
				res, err := core.Compile(c, core.Options{
					Strategy: core.EPOC, Device: dev, Mode: core.QOCEstimate, UseZX: &z,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Latency, "latency-ns")
				b.ReportMetric(float64(res.Stats.DepthAfterZX), "depth-after")
			}
		})
	}
}

func BenchmarkAblationTimeStep(b *testing.B) {
	x := gate.New(gate.X).Matrix()
	for _, dt := range []float64{1, 2, 4} {
		dt := dt
		b.Run(map[float64]string{1: "dt1ns", 2: "dt2ns", 4: "dt4ns"}[dt], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := qoc.StandardModel(1, qoc.ModelOptions{Dt: dt})
				r := qoc.DurationSearch(m, x, 2, int(80/dt), 2, qoc.GRAPEConfig{MaxIter: 300})
				b.ReportMetric(r.Duration, "duration-ns")
				b.ReportMetric(r.Fidelity, "fidelity")
			}
		})
	}
}

func BenchmarkAblationSynthesisBudget(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	u := linalg.RandomUnitary(4, rng)
	for _, maxCX := range []int{1, 2, 3} {
		maxCX := maxCX
		b.Run(map[int]string{1: "cx1", 2: "cx2", 3: "cx3"}[maxCX], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := synth.QSearch(u, synth.Options{MaxCNOTs: maxCX, Seed: 7})
				b.ReportMetric(res.Distance, "distance")
			}
		})
	}
}

// --- Micro-benchmarks of the hot kernels ---

func BenchmarkGRAPECNOT(b *testing.B) {
	m := qoc.StandardModel(2, qoc.ModelOptions{})
	target := gate.New(gate.CX).Matrix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := qoc.GRAPE(m, target, 60, qoc.GRAPEConfig{MaxIter: 300})
		if r.Fidelity < 0.99 {
			b.Fatalf("GRAPE fidelity %v", r.Fidelity)
		}
	}
}

func BenchmarkQSearchRandomSU4(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	u := linalg.RandomUnitary(4, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := synth.QSearch(u, synth.Options{Seed: int64(i + 1)})
		if res.Distance > 1e-6 {
			b.Fatalf("QSearch distance %v", res.Distance)
		}
	}
}

func BenchmarkZXSimplifyAndExtract(b *testing.B) {
	c := benchcirc.RandomCircuit(6, 60, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := zx.FromCircuit(c)
		g.Simplify()
		if _, err := g.ToCircuit(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartitionLargeCircuit(b *testing.B) {
	c := benchcirc.RandomLayered(64, 8, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blocks := partition.Partition(c, partition.Options{MaxQubits: 2, MaxGates: 16})
		if len(blocks) == 0 {
			b.Fatal("no blocks")
		}
	}
}

func BenchmarkStateVector16Q(b *testing.B) {
	c := benchcirc.RandomLayered(16, 6, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sim.RunCircuit(c)
		if real(s.Overlap(s)) < 0.99*0.99 {
			b.Fatal("norm lost")
		}
	}
}

func BenchmarkCircuitUnitary8Q(b *testing.B) {
	c, _ := benchcirc.Get("ghz")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := c.Unitary()
		if u.Rows != 256 {
			b.Fatal("wrong dimension")
		}
	}
}

func BenchmarkExpmHermitian8x8(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	h := linalg.RandomHermitian(8, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		linalg.ExpIHermitianInto(nil, linalg.NewMatrix(8, 8), h, 0.1)
	}
}

func BenchmarkScheduleASAP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := pulse.NewSchedule(32)
		for j := 0; j < 1000; j++ {
			q := j % 31
			s.Add(&pulse.Pulse{Label: "p", Qubits: []int{q, q + 1}, Duration: 100, Fidelity: 0.999})
		}
	}
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// circuitDepthGuard keeps the circuit import used even if benchmarks
// above are filtered out at build time.
var _ = circuit.New

// BenchmarkSynthWorkers compares serial vs pooled block synthesis on
// the same circuit (QOCEstimate isolates stage 3; a fresh library and
// synthesis cache per iteration keeps runs independent). The custom
// metrics expose the cache's dedup ratio — the part of the win that
// shows up even on one core.
func BenchmarkSynthWorkers(b *testing.B) {
	c, _ := benchcirc.Get("qaoa")
	dev := hardware.LinearChain(c.NumQubits)
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(map[int]string{1: "workers1", 4: "workers4"}[workers], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Compile(c, core.Options{
					Strategy:   core.EPOC,
					Device:     dev,
					Mode:       core.QOCEstimate,
					Workers:    workers,
					Library:    pulse.NewLibrary(true),
					SynthCache: synth.NewCache(),
				})
				if err != nil {
					b.Fatal(err)
				}
				hits, misses := res.Stats.SynthCacheHits, res.Stats.SynthCacheMisses
				b.ReportMetric(float64(misses), "qsearch-runs")
				if hits+misses > 0 {
					b.ReportMetric(100*float64(hits)/float64(hits+misses), "cache-hit-%")
				}
			}
		})
	}
}

// BenchmarkLibraryHitRate measures cross-program pulse reuse over the
// full 25-circuit corpus (paper + extended), with and without EPOC's
// global-phase matching.
func BenchmarkLibraryHitRate(b *testing.B) {
	for _, phase := range []bool{false, true} {
		phase := phase
		name := "exactMatch"
		if phase {
			name = "globalPhase"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lib := pulse.NewLibrary(phase)
				var hits, lookups int
				for _, bench := range benchcirc.AllNames() {
					c, err := benchcirc.Get(bench)
					if err != nil {
						b.Fatal(err)
					}
					res, err := core.Compile(c, core.Options{
						Strategy: core.EPOC,
						Device:   hardware.LinearChain(c.NumQubits),
						Mode:     core.QOCEstimate,
						Library:  lib,
					})
					if err != nil {
						b.Fatal(err)
					}
					hits += res.Stats.LibraryHits
					lookups += res.Stats.LibraryHits + res.Stats.LibraryMisses
				}
				b.ReportMetric(100*float64(hits)/float64(lookups), "hit-rate-%")
			}
		})
	}
}
