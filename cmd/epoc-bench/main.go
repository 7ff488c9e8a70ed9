// Command epoc-bench regenerates every table and figure of the EPOC
// paper's evaluation section on the simulated device:
//
//	-fig5    ZX depth optimization over 34 random circuits (+ VQE)
//	-figs    Figures 8, 9, 10: latency / compile time / fidelity with
//	         vs without the regrouping step, on 17 benchmarks
//	-table1  Gate-based vs PAQOC-style vs EPOC on the 7 Table-1 circuits
//	-scale   160-qubit feasibility run (§4)
//	-ablate  design-choice ablations (partition size, library, ZX, dt)
//	-all     everything above
//	-stats   per-experiment observability breakdown (stage timers,
//	         optimizer convergence, library behaviour)
//	-cpuprofile/-memprofile
//	         runtime/pprof profiles of the whole run
//	-timeout 10m
//	         cancel the run (context) after the given wall-clock time
//	-stage-budget total=30s,synth=2s,qoc=5s,synth-nodes=500,qoc-iters=50
//	         per-compile budgets; a compile that overruns degrades to
//	         its best-so-far result instead of running long
//
// Absolute nanoseconds differ from the paper's IBM-calibrated numbers
// (this is a simulated device; see DESIGN.md); the comparisons and the
// printed percentage reductions are the reproduction targets.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"epoc/internal/core"
	"epoc/internal/debugsrv"
	"epoc/internal/obs"
)

func main() {
	var (
		fig5       = flag.Bool("fig5", false, "run the Figure 5 ZX study")
		figs       = flag.Bool("figs", false, "run Figures 8-10 (grouping study)")
		table1     = flag.Bool("table1", false, "run Table 1 (strategy comparison)")
		scale      = flag.Bool("scale", false, "run the 160-qubit feasibility test")
		hitrate    = flag.Bool("hitrate", false, "run the pulse-library hit-rate study")
		ablate     = flag.Bool("ablate", false, "run design-choice ablations")
		all        = flag.Bool("all", false, "run everything")
		mode       = flag.String("mode", "full", "full (GRAPE) | estimate — QOC mode for figs/table1")
		stats      = flag.Bool("stats", false, "print a per-experiment observability breakdown")
		workers    = flag.Int("workers", 1, "parallel workers for block synthesis and QOC in every experiment")
		timeout    = flag.Duration("timeout", 0, "abort the whole run after this long (0 = no timeout)")
		budgets    = flag.String("stage-budget", "", "per-compile budgets, degrade instead of overrunning: total=30s,synth=2s,qoc=5s,synth-nodes=500,qoc-iters=50")
		cpuprofile = flag.String("cpuprofile", "", "write a runtime/pprof CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a runtime/pprof heap profile to this file")
		suite      = flag.String("suite", "", "run a fixed benchmark suite (small | all | grape) for -json/-baseline")
		jsonDir    = flag.String("json", "", "with -suite: write the BENCH_<suite>.json artifact into this directory")
		baseline   = flag.String("baseline", "", "with -suite: compare against this artifact and exit non-zero on regression")
		storeFlag  = flag.String("store", "", "with -suite: run full GRAPE backed by a persistent pulse/synth store at this root (artifact becomes BENCH_<suite>_warm.json)")
		debugAddr  = flag.String("debug-addr", "", "serve /debug/pprof and the /metrics obs exposition on this address while the run is live")
	)
	flag.Parse()
	if err := checkSuiteFlags(*suite, *jsonDir, *baseline, *storeFlag); err != nil {
		fmt.Fprintln(os.Stderr, "epoc-bench:", err)
		flag.Usage()
		os.Exit(2)
	}
	statsMode = *stats
	workerCount = *workers
	b, err := core.ParseBudgets(*budgets)
	if err != nil {
		fmt.Fprintln(os.Stderr, "epoc-bench:", err)
		os.Exit(1)
	}
	benchBudgets = b
	budgetSpec = *budgets
	storeRoot = *storeFlag
	if *debugAddr != "" {
		benchObs = obs.New()
		addr, err := debugsrv.Serve(*debugAddr, benchObs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "epoc-bench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "epoc-bench: debug server on http://%s/debug/pprof\n", addr)
	}
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		benchCtx = ctx
	}

	stopProf, err := debugsrv.StartCPUProfile(*cpuprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "epoc-bench:", err)
		os.Exit(1)
	}
	defer stopProf()

	full := *mode == "full"
	if *mode != "full" && *mode != "estimate" {
		fmt.Fprintf(os.Stderr, "epoc-bench: unknown -mode %q\n", *mode)
		os.Exit(1)
	}
	any := false
	if *fig5 || *all {
		runFig5()
		any = true
	}
	if *figs || *all {
		runGroupingStudy(full)
		any = true
	}
	if *table1 || *all {
		runTable1(full)
		any = true
	}
	if *scale || *all {
		runScale()
		any = true
	}
	if *hitrate || *all {
		runHitRate()
		any = true
	}
	if *ablate || *all {
		runAblations(full)
		any = true
	}
	if *suite != "" {
		runSuiteMode(*suite, *jsonDir, *baseline)
		any = true
	}
	if !any {
		flag.Usage()
		os.Exit(2)
	}

	if err := debugsrv.WriteHeapProfile(*memprofile); err != nil {
		fmt.Fprintln(os.Stderr, "epoc-bench:", err)
		os.Exit(1)
	}
}

// checkSuiteFlags rejects the suite-only flags without -suite, where
// they would be silently ignored: a -baseline that gates nothing.
func checkSuiteFlags(suite, jsonDir, baseline, store string) error {
	if suite == "" && (jsonDir != "" || baseline != "" || store != "") {
		return errors.New("-json, -baseline and -store only apply with -suite")
	}
	return nil
}
