// Benchmark suites as machine-readable artifacts: -suite runs a fixed
// circuit set under a pinned config, -json writes the per-circuit
// metrics as BENCH_<suite>.json, and -baseline gates the run against a
// previously committed artifact — the CI perf gate.
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"epoc/internal/benchcirc"
	"epoc/internal/core"
	"epoc/internal/hardware"
	"epoc/internal/obs"
	"epoc/internal/pulse"
	"epoc/internal/report"
	"epoc/internal/store"
)

// budgetSpec holds the raw -stage-budget string for the artifact's
// config fingerprint: budgets change the deterministic metrics, so two
// artifacts are only comparable under the same spec.
var budgetSpec string

// storeRoot (set by the -store flag) switches the suite from estimate
// to full-GRAPE mode backed by a persistent pulse/synth store: run 1
// pays for GRAPE and populates the store, run 2 serves every pulse
// from disk. The artifact is then named BENCH_<suite>_warm.json and
// carries a store marker in its config so warm artifacts never
// compare against estimate baselines.
var storeRoot string

// suiteCircuits maps a suite name to its circuit list and QOC mode.
// The estimate-mode suites make every gated metric a pure function of
// the circuit set and config, so the regression gate can compare at
// tight tolerances across machines. The grape suite runs GRAPE from
// cold caches: its pulses, and the duration-search probe and GRAPE
// iteration counts, are deterministic too.
func suiteCircuits(suite string) ([]string, core.QOCMode, error) {
	switch suite {
	case "small":
		return benchcirc.Table1Names(), core.QOCEstimate, nil
	case "all":
		return benchcirc.AllNames(), core.QOCEstimate, nil
	case "grape":
		return []string{"qaoa", "qft"}, core.QOCFull, nil
	}
	return nil, 0, fmt.Errorf("unknown -suite %q (suites: small, all, grape)", suite)
}

// runSuite compiles every circuit in the suite and collects the flat
// metric map of each into a sorted BenchArtifact.
func runSuite(suite string) (*report.BenchArtifact, error) {
	names, mode, err := suiteCircuits(suite)
	if err != nil {
		return nil, err
	}
	if storeRoot != "" {
		mode = core.QOCFull
	}
	art := &report.BenchArtifact{
		Version:  report.ManifestVersion,
		Suite:    suite,
		Strategy: string(core.EPOC),
		Config: map[string]string{
			"mode":         "estimate",
			"stage_budget": budgetSpec,
		},
	}
	if mode == core.QOCFull {
		art.Config["mode"] = "full"
	}
	var shared *store.Store
	if storeRoot != "" {
		art.Config["store"] = "on"
		// One store shared by every circuit in the suite: the namespace
		// ignores qubit count, so a single open covers the whole set and
		// per-compile harvest makes each circuit's pulses available to
		// the next (and, after the final flush, to the next run).
		st, err := core.OpenStore(storeRoot, core.Options{
			Strategy: core.EPOC,
			Device:   hardware.LinearChain(2),
			Mode:     core.QOCFull,
		})
		if err != nil {
			return nil, fmt.Errorf("suite %s: %w", suite, err)
		}
		shared = st
		defer func() {
			if cerr := shared.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "epoc-bench: store close:", cerr)
			}
		}()
	}
	// The fingerprint hashes strategy + config exactly like a run
	// manifest's, so the two artifact kinds agree on comparability.
	art.ConfigFingerprint = (&report.Manifest{
		Strategy: art.Strategy,
		Config:   art.Config,
	}).Fingerprint()

	for _, name := range names {
		c, err := benchcirc.Get(name)
		if err != nil {
			return nil, fmt.Errorf("suite %s: %w", suite, err)
		}
		opts := core.Options{
			Strategy: core.EPOC,
			Device:   hardware.LinearChain(c.NumQubits),
			Mode:     mode,
			Library:  pulse.NewLibrary(true),
			Workers:  workerCount,
			Store:    shared,
		}
		// Full-mode rows also count the stage-5 work from the compile's
		// own recorder: duration-search probes and GRAPE iterations.
		var rec *obs.Recorder
		if mode == core.QOCFull {
			rec = obs.New()
			opts.Obs = rec
		}
		res, err := compile(c, opts)
		if err != nil {
			return nil, fmt.Errorf("suite %s, circuit %s: %w", suite, name, err)
		}
		metrics := res.MetricMap()
		if rec != nil {
			snap := rec.Snapshot()
			metrics["qoc_probes"] = float64(snap.Timers["qoc/duration_probe"].Count)
			metrics["grape_iters"] = snap.Dists["qoc/grape/iterations"].Sum
			benchObs.Merge(snap)
		}
		art.Circuits = append(art.Circuits, report.CircuitResult{
			Name:    name,
			Metrics: metrics,
		})
		fmt.Printf("  %-12s latency %8.1f ns  fidelity %.5f  pulses %3.0f\n",
			name, res.Latency, res.Fidelity, metrics["pulses"])
	}
	art.Sort()
	return art, nil
}

// runSuiteMode drives the -suite/-json/-baseline flags: run the suite,
// optionally persist the artifact, optionally gate against a baseline.
// It exits the process non-zero when the gate finds regressions.
func runSuiteMode(suite, jsonDir, baselinePath string) {
	if storeRoot != "" {
		fmt.Printf("== Suite %s (EPOC, full mode, store %s) ==\n", suite, storeRoot)
	} else if suite == "grape" {
		fmt.Printf("== Suite %s (EPOC, full mode, cold) ==\n", suite)
	} else {
		fmt.Printf("== Suite %s (EPOC, estimate mode) ==\n", suite)
	}
	art, err := runSuite(suite)
	if err != nil {
		fatalErr(err)
	}
	if jsonDir != "" {
		data, err := report.EncodeArtifact(art)
		if err != nil {
			fatalErr(err)
		}
		if err := os.MkdirAll(jsonDir, 0o755); err != nil {
			fatalErr(err)
		}
		name := "BENCH_" + suite
		if storeRoot != "" {
			name += "_warm"
		}
		path := filepath.Join(jsonDir, name+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			fatalErr(err)
		}
		fmt.Println("wrote", path)
	}
	if baselinePath != "" {
		if code := gateBaseline(art, baselinePath, os.Stdout, os.Stderr); code != 0 {
			os.Exit(code)
		}
	}
}

// gateBaseline diffs the run against the bench artifact at
// baselinePath, prints the diff table, and gates the diff under
// report.BenchGatePolicy. It returns the exit code: 0 clean, 1 on an
// unreadable or incomparable baseline or any regression.
func gateBaseline(art *report.BenchArtifact, baselinePath string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintf(stderr, "epoc-bench: baseline %s: %v\n", baselinePath, err)
		return 1
	}
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fail(err)
	}
	base, err := report.LoadRunStats("baseline", raw)
	if err != nil {
		return fail(err)
	}
	if base.Source != "bench" {
		return fail(fmt.Errorf("is a %s, not a bench artifact", base.Source))
	}
	data, err := report.EncodeArtifact(art)
	if err != nil {
		return fail(err)
	}
	cur, err := report.LoadRunStats("current", data)
	if err != nil {
		return fail(err)
	}
	rules, err := report.ParseFailOn(report.BenchGatePolicy)
	if err != nil {
		return fail(err)
	}
	if art.Config["mode"] == "full" && art.Config["store"] == "" {
		// A cold full-mode run spends its stage-5 time in GRAPE: wall
		// clock, like compile time. The probe and iteration counts gate
		// that work instead.
		rules = slices.DeleteFunc(rules, func(r report.FailRule) bool { return r.Metric == "qoc_time_ns" })
	}
	d := report.DiffRunStats(base, cur)
	fmt.Fprint(stdout, report.FormatDiff(d))
	if violations := report.GateDiff(d, rules); len(violations) > 0 {
		fmt.Fprintf(stderr, "epoc-bench: %d regression(s) vs %s:\n", len(violations), baselinePath)
		for _, v := range violations {
			fmt.Fprintf(stderr, "  %s\n", v)
		}
		return 1
	}
	fmt.Fprintf(stdout, "baseline check passed: %d circuits, no regressions vs %s\n",
		len(art.Circuits), baselinePath)
	return 0
}

func fatalErr(err error) {
	fmt.Fprintln(os.Stderr, "epoc-bench:", err)
	os.Exit(1)
}
