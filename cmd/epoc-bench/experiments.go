package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"epoc/internal/benchcirc"
	"epoc/internal/circuit"
	"epoc/internal/core"
	"epoc/internal/gate"
	"epoc/internal/hardware"
	"epoc/internal/obs"
	"epoc/internal/pulse"
	"epoc/internal/qoc"
	"epoc/internal/report"
)

// statsMode (set by the -stats flag) attaches a Recorder to every
// compile of an experiment and prints an aggregated stage breakdown
// after it.
var statsMode bool

// workerCount (set by the -workers flag) sizes the synthesis and QOC
// worker pools in every experiment compile. Results are identical at
// any setting; only wall-clock time changes.
var workerCount int

// benchCtx (set by the -timeout flag) bounds the whole run: when it
// expires every in-flight compile aborts with the context error.
var benchCtx = context.Background()

// benchBudgets (set by the -stage-budget flag) applies per-compile
// degradation budgets to every experiment compile.
var benchBudgets core.Budgets

// benchObs (set when -debug-addr is live) is the recorder the debug
// server exposes on /metrics; compiles that don't carry their own
// recorder report into it so the endpoint shows live counters.
var benchObs *obs.Recorder

// compile routes every experiment compile through the run-wide
// context and budgets, and surfaces degradation inline so a budgeted
// run's tables are honest about which rows are best-so-far numbers.
func compile(c *circuit.Circuit, opts core.Options) (*core.Result, error) {
	opts.Budgets = benchBudgets
	if opts.Obs == nil && benchObs != nil {
		opts.Obs = benchObs
	}
	res, err := core.CompileContext(benchCtx, c, opts)
	if err == nil && res.Degraded {
		fmt.Printf("  [degraded: %s]\n", strings.Join(res.DegradeReasons, ", "))
	}
	return res, err
}

// newRecorder returns a fresh Recorder in stats mode, nil otherwise —
// the nil recorder keeps the unobserved runs on the zero-cost path.
func newRecorder() *obs.Recorder {
	if !statsMode {
		return nil
	}
	return obs.New()
}

// printBreakdown renders an experiment's aggregated observability
// snapshot (no-op with a nil recorder).
func printBreakdown(title string, r *obs.Recorder) {
	if r == nil {
		return
	}
	fmt.Printf("-- observability: %s --\n", title)
	fmt.Print(report.RenderSnapshot(r.Snapshot()))
	fmt.Println()
}

// paperTable1 holds the published Table 1 values for side-by-side
// comparison: latency in ns and fidelity ('-' entries are NaN-free 0).
var paperTable1 = map[string]struct {
	gate, paqocLat, epocLat float64
	paqocFid, epocFid       float64
}{
	"simon":   {469, 141.23, 92, 0, 0.984},
	"bb84":    {56.5, 13, 10, 0.981, 0.988},
	"bv":      {901, 321, 268.5, 0.971, 0.968},
	"qaoa":    {1324.5, 393, 111.5, 0.952, 0.984},
	"decod24": {1315.5, 315, 144, 0.982, 0.989},
	"dnn":     {3174.5, 385, 453.5, 0, 0.965},
	"ham7":    {5238.5, 1186.5, 675.5, 0, 0.938},
}

// runFig5 reproduces Figure 5: ZX depth reduction on 34 random
// circuits plus the paper's VQE extreme case.
func runFig5() {
	tb := report.NewTable("Figure 5: ZX-calculus depth optimization (34 random circuits)",
		"circuit", "qubits", "depth before", "depth after", "reduction")
	var ratios []float64
	for seed := int64(1); seed <= 34; seed++ {
		n := 4 + int(seed)%6
		depth := 20 + int(seed*7)%50
		c := benchcirc.RandomCircuit(n, depth, seed)
		opt := core.DepthOptimize(c)
		ratio := float64(c.Depth()) / float64(maxInt(1, opt.Depth()))
		ratios = append(ratios, ratio)
		tb.AddRow(fmt.Sprintf("rand-%02d", seed), n, c.Depth(), opt.Depth(), fmt.Sprintf("%.2fx", ratio))
	}
	fmt.Print(tb.String())
	fmt.Printf("average depth reduction: %.2fx (paper: 1.48x)\n", report.Mean(ratios))

	vqe, _ := benchcirc.Get("vqe")
	opt := core.DepthOptimize(vqe)
	fmt.Printf("VQE extreme case: depth %d -> %d (%.2fx; paper reports 7656 -> 1110 on a much deeper ansatz)\n\n",
		vqe.Depth(), opt.Depth(), float64(vqe.Depth())/float64(maxInt(1, opt.Depth())))
}

// runGroupingStudy reproduces Figures 8 (latency), 9 (compile time)
// and 10 (fidelity): EPOC with vs without the regrouping step on all
// 17 benchmarks.
func runGroupingStudy(full bool) {
	mode := core.QOCEstimate
	label := "estimate"
	if full {
		mode = core.QOCFull
		label = "GRAPE"
	}
	tb := report.NewTable(
		fmt.Sprintf("Figures 8-10: regrouping study, 17 benchmarks (QOC mode: %s)", label),
		"benchmark", "lat no-group (ns)", "lat group (ns)", "lat ↓%",
		"time no-group", "time group", "fid no-group", "fid group")

	// Cold libraries per benchmark and setting: compile times then
	// reflect each setting's true QOC cost rather than cross-benchmark
	// cache luck.
	rec := newRecorder()
	var latRed, fidGains, timeOverheads []float64
	for _, name := range benchcirc.Names() {
		c, _ := benchcirc.Get(name)
		dev := hardware.LinearChain(c.NumQubits)
		resNo, err := compile(c, core.Options{Strategy: core.EPOCNoGroup, Device: dev, Mode: mode, Library: pulse.NewLibrary(true), Obs: rec, Workers: workerCount})
		if err != nil {
			fmt.Printf("%s (no-group): %v\n", name, err)
			continue
		}
		resYes, err := compile(c, core.Options{Strategy: core.EPOC, Device: dev, Mode: mode, Library: pulse.NewLibrary(true), Obs: rec, Workers: workerCount})
		if err != nil {
			fmt.Printf("%s (group): %v\n", name, err)
			continue
		}
		red := report.PercentChange(resNo.Latency, resYes.Latency)
		latRed = append(latRed, red)
		fidGains = append(fidGains, 100*(resYes.Fidelity-resNo.Fidelity)/maxF(resNo.Fidelity, 1e-9))
		timeOverheads = append(timeOverheads,
			100*(resYes.CompileTime.Seconds()-resNo.CompileTime.Seconds())/maxF(resNo.CompileTime.Seconds(), 1e-9))
		tb.AddRow(name,
			fmt.Sprintf("%.1f", resNo.Latency), fmt.Sprintf("%.1f", resYes.Latency),
			fmt.Sprintf("%.1f", red),
			resNo.CompileTime.Round(time.Millisecond).String(),
			resYes.CompileTime.Round(time.Millisecond).String(),
			fmt.Sprintf("%.4f", resNo.Fidelity), fmt.Sprintf("%.4f", resYes.Fidelity))
	}
	fmt.Print(tb.String())
	fmt.Printf("average latency reduction from grouping:  %.2f%% (paper: 51.11%%)\n", report.Mean(latRed))
	fmt.Printf("average fidelity change from grouping:    +%.2f%% (paper: +33.77%%)\n", report.Mean(fidGains))
	fmt.Printf("average compile-time change from grouping: %+.2f%% (paper: +7.11%%)\n\n", report.Mean(timeOverheads))
	printBreakdown("grouping study (all 34 compiles)", rec)
}

// runTable1 reproduces Table 1: gate-based vs PAQOC-style vs EPOC on
// the seven named circuits, with the paper's numbers alongside.
func runTable1(full bool) {
	mode := core.QOCEstimate
	label := "estimate"
	if full {
		mode = core.QOCFull
		label = "GRAPE"
	}
	tb := report.NewTable(
		fmt.Sprintf("Table 1: latency (ns) and fidelity per strategy (QOC mode: %s)", label),
		"circuit", "gate-based", "paqoc", "epoc", "epoc fid",
		"paper gate", "paper paqoc", "paper epoc", "paper epoc fid")

	libPAQOC := pulse.NewLibrary(false)
	libEPOC := pulse.NewLibrary(true)
	rec := newRecorder()
	var vsGate, vsPAQOC []float64
	for _, name := range benchcirc.Table1Names() {
		c, _ := benchcirc.Get(name)
		dev := hardware.LinearChain(c.NumQubits)
		gb, err := compile(c, core.Options{Strategy: core.GateBased, Device: dev, Obs: rec})
		if err != nil {
			fmt.Printf("%s: %v\n", name, err)
			continue
		}
		pq, err := compile(c, core.Options{Strategy: core.PAQOC, Device: dev, Mode: mode, Library: libPAQOC, Obs: rec, Workers: workerCount})
		if err != nil {
			fmt.Printf("%s: %v\n", name, err)
			continue
		}
		ep, err := compile(c, core.Options{Strategy: core.EPOC, Device: dev, Mode: mode, Library: libEPOC, Obs: rec, Workers: workerCount})
		if err != nil {
			fmt.Printf("%s: %v\n", name, err)
			continue
		}
		ref := paperTable1[name]
		vsGate = append(vsGate, report.PercentChange(gb.Latency, ep.Latency))
		vsPAQOC = append(vsPAQOC, report.PercentChange(pq.Latency, ep.Latency))
		tb.AddRow(name,
			fmt.Sprintf("%.1f", gb.Latency),
			fmt.Sprintf("%.1f", pq.Latency),
			fmt.Sprintf("%.1f", ep.Latency),
			fmt.Sprintf("%.3f", ep.Fidelity),
			fmt.Sprintf("%.1f", ref.gate),
			fmt.Sprintf("%.1f", ref.paqocLat),
			fmt.Sprintf("%.1f", ref.epocLat),
			fmt.Sprintf("%.3f", ref.epocFid))
	}
	fmt.Print(tb.String())
	fmt.Printf("average EPOC latency reduction vs gate-based: %.2f%% (paper: 76.80%%)\n", report.Mean(vsGate))
	fmt.Printf("average EPOC latency reduction vs PAQOC:      %.2f%% (paper: 31.74%%)\n\n", report.Mean(vsPAQOC))
	printBreakdown("Table 1 (all 21 compiles)", rec)
}

// runHitRate measures the pulse-library hit rate across the full
// 25-circuit corpus (paper set + extended set) with and without
// EPOC's global-phase matching — the paper's "higher cache hit rate"
// claim, §3.4.
func runHitRate() {
	tb := report.NewTable("Pulse-library hit rate across 25 programs (estimate mode)",
		"matching", "lookups", "hits", "hit rate", "entries")
	rec := newRecorder()
	for _, phase := range []bool{false, true} {
		lib := pulse.NewLibrary(phase)
		for _, name := range benchcirc.AllNames() {
			c, err := benchcirc.Get(name)
			if err != nil {
				continue
			}
			dev := hardware.LinearChain(c.NumQubits)
			if _, err := compile(c, core.Options{
				Strategy: core.EPOC, Device: dev, Mode: core.QOCEstimate, Library: lib, Obs: rec, Workers: workerCount,
			}); err != nil {
				fmt.Printf("%s: %v\n", name, err)
			}
		}
		label := "exact-match"
		if phase {
			label = "global-phase"
		}
		tb.AddRow(label, lib.Hits+lib.Misses, lib.Hits,
			fmt.Sprintf("%.1f%%", 100*lib.HitRate()), lib.Len())
	}
	fmt.Print(tb.String())
	fmt.Println()
	printBreakdown("hit-rate study (both key modes)", rec)
}

// runScale reproduces the §4 scalability claim: a large, deep
// 160-qubit program compiles end to end (QOC in calibrated-estimate
// mode; see DESIGN.md).
func runScale() {
	fmt.Println("== Scale test: 160-qubit deep program (§4) ==")
	c := benchcirc.RandomLayered(160, 8, 1)
	dev := hardware.LinearChain(160)
	rec := newRecorder()
	start := time.Now()
	res, err := compile(c, core.Options{Strategy: core.EPOC, Device: dev, Mode: core.QOCEstimate, Obs: rec, Workers: workerCount})
	if err != nil {
		fmt.Println("scale test failed:", err)
		return
	}
	fmt.Printf("gates: %d  depth: %d  blocks: %d  pulses: %d\n",
		res.Stats.GatesBefore, res.Stats.DepthBefore, res.Stats.Blocks, res.Stats.PulseCount)
	fmt.Printf("latency: %.1f ns  fidelity: %.4f  compile time: %s\n\n",
		res.Latency, res.Fidelity, time.Since(start).Round(time.Millisecond))
	printBreakdown("scale test", rec)
}

// runAblations exercises the design choices DESIGN.md calls out.
func runAblations(full bool) {
	fmt.Println("== Ablations ==")
	c, _ := benchcirc.Get("qaoa")
	dev := hardware.LinearChain(c.NumQubits)

	// Partition/regroup size limit.
	tb := report.NewTable("partition & regroup qubit limit (qaoa, estimate mode)",
		"limit", "latency (ns)", "pulses", "blocks")
	for _, lim := range []int{2, 3} {
		res, err := compile(c, core.Options{
			Strategy: core.EPOC, Device: dev, Mode: core.QOCEstimate,
			PartitionMaxQubits: lim, RegroupMaxQubits: lim,
		})
		if err != nil {
			fmt.Println("ablation error:", err)
			continue
		}
		tb.AddRow(lim, res.Latency, res.Stats.PulseCount, res.Stats.Blocks)
	}
	fmt.Print(tb.String())

	// ZX stage on/off.
	tb = report.NewTable("ZX stage (vqe, estimate mode)", "zx", "depth after stage", "latency (ns)")
	for _, useZX := range []bool{false, true} {
		z := useZX
		res, err := compile(mustBench("vqe"), core.Options{
			Strategy: core.EPOC, Device: hardware.LinearChain(6), Mode: core.QOCEstimate, UseZX: &z,
		})
		if err != nil {
			fmt.Println("ablation error:", err)
			continue
		}
		tb.AddRow(fmt.Sprintf("%v", useZX), res.Stats.DepthAfterZX, res.Latency)
	}
	fmt.Print(tb.String())

	// Pulse library & global-phase matching (full QOC so reuse matters):
	// two spellings of the same program — s vs rz(π/2), equal up to a
	// global phase — under the PAQOC flow, whose block unitaries reach
	// the library unnormalized.
	if full {
		tb = report.NewTable("pulse library: global-phase matching (s vs rz(π/2) spellings, GRAPE mode)",
			"library", "QOC runs (2nd program)", "hits", "compile time (2nd)")
		for _, phase := range []bool{false, true} {
			lib := pulse.NewLibrary(phase)
			first := phaseSpellingProgram(true)
			if _, err := compile(first, core.Options{
				Strategy: core.PAQOC, Device: hardware.LinearChain(first.NumQubits), Library: lib,
			}); err != nil {
				fmt.Println("ablation error:", err)
				continue
			}
			second := phaseSpellingProgram(false)
			res, err := compile(second, core.Options{
				Strategy: core.PAQOC, Device: hardware.LinearChain(second.NumQubits), Library: lib,
			})
			if err != nil {
				fmt.Println("ablation error:", err)
				continue
			}
			name := "exact-match"
			if phase {
				name = "global-phase"
			}
			tb.AddRow(name, res.Stats.QOCRuns, lib.Hits, res.CompileTime.Round(time.Millisecond).String())
		}
		fmt.Print(tb.String())

		// GRAPE slot width.
		tb = report.NewTable("GRAPE time-slot width dt (X gate pulse)", "dt (ns)", "duration (ns)", "fidelity")
		for _, dt := range []float64{1, 2, 4} {
			m := qoc.StandardModel(1, qoc.ModelOptions{Dt: dt})
			r := qoc.DurationSearch(m, gate.New(gate.X).Matrix(), 2, int(80/dt), 2, qoc.GRAPEConfig{MaxIter: 300})
			tb.AddRow(fmt.Sprintf("%.0f", dt), r.Duration, fmt.Sprintf("%.5f", r.Fidelity))
		}
		fmt.Print(tb.String())
	}
	fmt.Println()
}

func mustBench(name string) *circuit.Circuit {
	c, err := benchcirc.Get(name)
	if err != nil {
		panic(err)
	}
	return c
}

// phaseSpellingProgram builds the same entangling program with its
// phase gates spelled as "s" or as "rz(π/2)" (equal up to e^{iπ/4}).
func phaseSpellingProgram(useS bool) *circuit.Circuit {
	c := circuit.New(4)
	phaseGate := gate.New(gate.S)
	if !useS {
		phaseGate = gate.New(gate.RZ, math.Pi/2)
	}
	for q := 0; q < 4; q++ {
		c.Append(gate.New(gate.H), q)
		c.Append(phaseGate, q)
	}
	for q := 0; q < 3; q++ {
		c.Append(gate.New(gate.CX), q, q+1)
		c.Append(phaseGate, q+1)
	}
	return c
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
