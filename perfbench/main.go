// Command perfbench is the repository benchmark: it runs one workload
// against the public pipeline API for a fixed time, checks every output
// for correctness, and prints the workload's metrics as one JSON object
// on the last line of standard output.
//
//	perfbench --workload synth_cold --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with no
// tracing. With --trace 1 it instead replays each compile layer by
// layer, with the benchmark's own spans around the calls into each
// package, and reports the per-layer metrics. WORKLOADS.md says why
// each workload and circuit was chosen. The exit code is non-zero on
// any correctness failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is what a workload hands back: its metrics, its operation tally,
// and every correctness defect found (failed operations, oracle misses,
// replay mismatches, counters that did not repeat).
type run struct {
	metrics map[string]metric
	ops     tally
	defects []string
}

func newRun() *run { return &run{metrics: map[string]metric{}} }

func (r *run) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// fail records a defect. It does not count an operation: callers that
// found the defect on an operation have already recorded it in ops.
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.defects = append(r.defects, msg)
	fmt.Fprintln(os.Stderr, "perfbench: DEFECT:", msg)
}

// config is the command line.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// workloads maps each workload name to its implementation. The four
// stress different layers; see WORKLOADS.md.
var workloads = map[string]func(config) (*run, error){
	"synth_cold": runBatch,
	"grape_cold": runBatch,
	"zx_wide":    runBatch,
	"serve_warm": runServe,
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 replays layers with spans and reports per-layer metrics")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	fn, ok := workloads[cfg.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: want --workload {%s} --seconds ≥1 --trace {0,1}\n", strings.Join(names, ","))
		os.Exit(2)
	}
	r, err := fn(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	os.Exit(report(os.Stdout, r))
}

// report prints every metric as a "name value unit" line, then the
// JSON result as the last line, and returns the exit code.
func report(w io.Writer, r *run) int {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	res := result{
		Correct:   len(r.defects) == 0 && r.ops.failed == 0 && r.ops.attempted > 0,
		Attempted: r.ops.attempted,
		Failed:    r.ops.failed,
		Metrics:   r.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
