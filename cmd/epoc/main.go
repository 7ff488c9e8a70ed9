// Command epoc compiles an OpenQASM 2.0 program into a pulse schedule
// with a selectable strategy and prints latency, fidelity and stage
// statistics.
//
// Usage:
//
//	epoc -in circuit.qasm [-strategy epoc] [-mode full] [-schedule]
//	epoc -bench ghz [-strategy gate-based]
//	epoc -bench qaoa -stats             # per-stage time/count breakdown
//	epoc -bench qaoa -stats -json -     # breakdown + schedule as JSON
//	epoc -bench qaoa -cpuprofile cpu.pb # runtime/pprof CPU profile
//	epoc -bench qaoa -timeout 30s -stage-budget synth=2s,qoc=5s
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"epoc/internal/benchcirc"
	"epoc/internal/circuit"
	"epoc/internal/core"
	"epoc/internal/debugsrv"
	"epoc/internal/hardware"
	"epoc/internal/obs"
	"epoc/internal/pulse"
	"epoc/internal/qasm"
	"epoc/internal/report"
	"epoc/internal/trace"
)

func main() {
	var (
		in         = flag.String("in", "", "input OpenQASM 2.0 file ('-' for stdin)")
		bench      = flag.String("bench", "", "use a built-in benchmark circuit instead of -in")
		strategy   = flag.String("strategy", "epoc", "gate-based | accqoc | paqoc | epoc-nogroup | epoc")
		mode       = flag.String("mode", "full", "full (GRAPE) | estimate (calibrated model)")
		schedule   = flag.Bool("schedule", false, "print the pulse timeline")
		gantt      = flag.Bool("gantt", false, "print an ASCII Gantt chart of the schedule")
		jsonOut    = flag.String("json", "", "write the pulse schedule as JSON to this file ('-' for stdout); with -stats the JSON also carries the obs snapshot")
		stats      = flag.Bool("stats", false, "record and print the per-stage observability breakdown")
		grape      = flag.Int("grape-iters", 200, "GRAPE iteration budget")
		workers    = flag.Int("workers", 1, "parallel workers for block synthesis and QOC (output is identical at any setting)")
		timeout    = flag.Duration("timeout", 0, "abort the compile after this long (0 = no timeout)")
		budgets    = flag.String("stage-budget", "", "degrade instead of overrunning: total=30s,synth=2s,qoc=5s,synth-nodes=500,qoc-iters=50")
		cpuprofile = flag.String("cpuprofile", "", "write a runtime/pprof CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a runtime/pprof heap profile to this file")
		traceOut   = flag.String("trace", "", "write a Chrome trace-event JSON span trace to this file (load in Perfetto or chrome://tracing)")
		reportOut  = flag.String("report", "", "write a machine-readable run manifest (metrics, obs snapshot, config fingerprint) to this file")
		debugAddr  = flag.String("debug-addr", "", "serve /debug/pprof and the /metrics obs exposition on this address while compiling (e.g. localhost:6060)")
		storePath  = flag.String("store", "", "persistent pulse/synth store root: reuse pulses from earlier runs, warm-start GRAPE from near matches, flush new entries on exit")
	)
	flag.Parse()

	stopProf, err := debugsrv.StartCPUProfile(*cpuprofile)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	c, err := loadCircuit(*in, *bench)
	if err != nil {
		fatal(err)
	}
	b, err := core.ParseBudgets(*budgets)
	if err != nil {
		fatal(err)
	}
	opts := core.Options{
		Strategy:   core.Strategy(*strategy),
		Device:     hardware.LinearChain(c.NumQubits),
		GRAPEIters: *grape,
		Workers:    *workers,
		Budgets:    b,
	}
	var rec *obs.Recorder
	if *stats || *reportOut != "" {
		rec = obs.New()
		opts.Obs = rec
	}
	var tracer *trace.Tracer
	if *traceOut != "" {
		tracer = trace.New(nil)
		opts.Trace = tracer
	}
	if *debugAddr != "" {
		addr, err := debugsrv.Serve(*debugAddr, rec)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "epoc: debug server on http://%s/debug/pprof\n", addr)
	}
	switch *mode {
	case "full":
		opts.Mode = core.QOCFull
	case "estimate":
		opts.Mode = core.QOCEstimate
	default:
		fatal(fmt.Errorf("unknown -mode %q", *mode))
	}
	if *storePath != "" {
		st, err := core.OpenStore(*storePath, opts)
		if err != nil {
			fatal(err)
		}
		opts.Store = st
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancelCompile context.CancelFunc
		ctx, cancelCompile = context.WithTimeout(ctx, *timeout)
		defer cancelCompile()
	}
	res, err := core.CompileContext(ctx, c, opts)
	if err != nil {
		fatal(err)
	}
	if opts.Store != nil {
		if err := opts.Store.Close(); err != nil {
			fatal(fmt.Errorf("close store: %w", err))
		}
	}
	st := res.Stats
	fmt.Printf("strategy:      %s\n", res.Strategy)
	fmt.Printf("qubits:        %d\n", c.NumQubits)
	fmt.Printf("gates:         %d (depth %d)\n", st.GatesBefore, st.DepthBefore)
	if st.DepthAfterZX != 0 {
		fmt.Printf("after ZX:      %d gates (depth %d)\n", st.GatesAfterZX, st.DepthAfterZX)
	}
	if st.Blocks != 0 {
		fmt.Printf("blocks:        %d (synth fallbacks %d)\n", st.Blocks, st.SynthFallback)
	}
	if st.VUGs != 0 || st.CNOTsAfter != 0 {
		fmt.Printf("synthesized:   %d VUGs + %d CNOTs\n", st.VUGs, st.CNOTsAfter)
	}
	fmt.Printf("pulses:        %d (QOC runs %d, library %d hits / %d misses)\n",
		st.PulseCount, st.QOCRuns, st.LibraryHits, st.LibraryMisses)
	fmt.Printf("latency:       %.1f ns\n", res.Latency)
	fmt.Printf("fidelity:      %.5f\n", res.Fidelity)
	fmt.Printf("compile time:  %s\n", res.CompileTime)
	if res.Degraded {
		fmt.Printf("degraded:      yes (%s)\n", strings.Join(res.DegradeReasons, ", "))
	}
	var snap *obs.Snapshot
	if rec != nil {
		snap = rec.Snapshot()
	}
	if *stats && snap != nil {
		if total := st.LibraryHits + st.LibraryMisses; total > 0 {
			fmt.Printf("library:       %.1f%% hit rate (%d lookups)\n",
				100*float64(st.LibraryHits)/float64(total), total)
		}
		fmt.Println()
		fmt.Print(report.RenderSnapshot(snap))
	}
	if *traceOut != "" {
		if err := os.WriteFile(*traceOut, tracer.ChromeTrace(), 0o644); err != nil {
			fatal(err)
		}
	}
	if *reportOut != "" {
		m := buildManifest(circuitName(*in, *bench), res, snap, *mode, *workers, *grape, *budgets)
		data, err := report.EncodeManifest(m)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*reportOut, data, 0o644); err != nil {
			fatal(err)
		}
	}
	if *schedule {
		fmt.Print(res.Schedule.String())
	}
	if *gantt {
		fmt.Print(res.Schedule.Gantt(100))
	}
	if *jsonOut != "" {
		var payload interface{} = res.Schedule
		if snap != nil {
			payload = struct {
				Schedule *pulse.Schedule `json:"schedule"`
				Obs      *obs.Snapshot   `json:"obs"`
			}{res.Schedule, snap}
		}
		data, err := json.MarshalIndent(payload, "", "  ")
		if err != nil {
			fatal(err)
		}
		if *jsonOut == "-" {
			fmt.Println(string(data))
		} else if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fatal(err)
		}
	}
	if err := debugsrv.WriteHeapProfile(*memprofile); err != nil {
		fatal(err)
	}
}

// circuitName labels the run in the manifest: the benchmark name when
// -bench was used, otherwise the input path.
func circuitName(in, bench string) string {
	if bench != "" {
		return bench
	}
	return in
}

// buildManifest bundles one compile into the machine-readable run
// manifest behind -report: result metrics, the obs snapshot, and a
// fingerprint of every knob that affects the output.
func buildManifest(name string, res *core.Result, snap *obs.Snapshot, mode string, workers, grapeIters int, budgets string) *report.Manifest {
	m := &report.Manifest{
		Version:  report.ManifestVersion,
		Circuit:  name,
		Strategy: string(res.Strategy),
		Config: map[string]string{
			"mode":         mode,
			"workers":      strconv.Itoa(workers),
			"grape_iters":  strconv.Itoa(grapeIters),
			"stage_budget": budgets,
		},
		Metrics:        res.MetricMap(),
		Degraded:       res.Degraded,
		DegradeReasons: res.DegradeReasons,
		Obs:            snap,
	}
	m.Fingerprint()
	return m
}

func loadCircuit(in, bench string) (*circuit.Circuit, error) {
	switch {
	case bench != "":
		return benchcirc.Get(bench)
	case in == "-":
		src, err := io.ReadAll(os.Stdin)
		if err != nil {
			return nil, err
		}
		prog, err := qasm.Parse(string(src))
		if err != nil {
			return nil, err
		}
		return prog.Circuit, nil
	case in != "":
		src, err := os.ReadFile(in)
		if err != nil {
			return nil, err
		}
		prog, err := qasm.Parse(string(src))
		if err != nil {
			return nil, err
		}
		return prog.Circuit, nil
	}
	return nil, fmt.Errorf("one of -in or -bench is required (benchmarks: %v)", benchcirc.Names())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "epoc:", err)
	os.Exit(1)
}
