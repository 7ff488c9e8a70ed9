// Package epoc is the public API of the EPOC pulse-generation
// framework — a Go reproduction of "EPOC: An Efficient Pulse
// Generation Framework with Advanced Synthesis for Quantum Circuits"
// (DAC 2025).
//
// The pipeline compiles gate-level quantum circuits into microwave
// pulse schedules through five stages: graph-based (ZX-calculus) depth
// optimization, greedy circuit partitioning, VUG-based heuristic
// synthesis, regrouping, and GRAPE quantum optimal control with a
// global-phase-aware pulse library. Baseline flows (gate-based,
// AccQOC-style, PAQOC-style, EPOC-without-grouping) share the same
// engine for apples-to-apples evaluation.
//
// Quick start:
//
//	prog, _ := epoc.ParseQASM(src)
//	dev := epoc.LinearDevice(prog.Circuit.NumQubits)
//	res, _ := epoc.Compile(prog.Circuit, epoc.CompileOptions{
//		Strategy: epoc.StrategyEPOC,
//		Device:   dev,
//	})
//	fmt.Println(res.Latency, res.Fidelity)
package epoc

import (
	"context"
	"fmt"

	"epoc/internal/benchcirc"
	"epoc/internal/circuit"
	"epoc/internal/core"
	"epoc/internal/gate"
	"epoc/internal/hardware"
	"epoc/internal/obs"
	"epoc/internal/pulse"
	"epoc/internal/qasm"
	"epoc/internal/trace"
)

// Circuit is a gate-level quantum circuit (qubit 0 = least-significant
// bit of a basis state index).
type Circuit = circuit.Circuit

// Op is one gate application within a circuit.
type Op = circuit.Op

// Gate is a quantum gate; build one with NewGate.
type Gate = gate.Gate

// Device models the target processor (topology, calibrations, control
// parameters).
type Device = hardware.Device

// CompileOptions configures a compilation; the zero value plus a
// Device selects the full EPOC flow with sensible defaults.
type CompileOptions = core.Options

// Result is a compiled pulse program with latency (ns), ESP fidelity,
// compile time, and per-stage statistics.
type Result = core.Result

// Budgets bounds a compilation: a whole-pipeline deadline plus
// per-stage time and iteration budgets. Exceeding a budget degrades
// the result (Result.Degraded, best-so-far output); canceling the
// context aborts it. The zero value means unlimited.
type Budgets = core.Budgets

// Strategy selects one of the compilation flows.
type Strategy = core.Strategy

// PulseLibrary caches optimized pulses across compilations.
type PulseLibrary = pulse.Library

// Schedule is a per-qubit-line pulse timeline.
type Schedule = pulse.Schedule

// QASMProgram is the result of parsing OpenQASM 2.0 source.
type QASMProgram = qasm.Program

// Recorder collects per-stage timings, counters and bounded traces
// during compilation; attach one via CompileOptions.Obs. A nil
// Recorder is valid everywhere and records nothing at zero cost.
type Recorder = obs.Recorder

// ObsSnapshot is an immutable copy of everything a Recorder has
// collected, ready for rendering or JSON encoding.
type ObsSnapshot = obs.Snapshot

// Tracer records a hierarchical span trace of a compilation — per
// stage, per synthesized block, per optimized pulse — exportable as
// Chrome trace-event JSON (Perfetto-loadable) via Tracer.ChromeTrace.
// Attach one via CompileOptions.Trace; a nil Tracer records nothing at
// zero cost.
type Tracer = trace.Tracer

// Compilation strategies.
const (
	StrategyGateBased   = core.GateBased
	StrategyAccQOC      = core.AccQOC
	StrategyPAQOC       = core.PAQOC
	StrategyEPOCNoGroup = core.EPOCNoGroup
	StrategyEPOC        = core.EPOC
)

// QOC modes: full GRAPE, or the calibrated estimator for scale
// studies.
const (
	QOCFull     = core.QOCFull
	QOCEstimate = core.QOCEstimate
)

// NewCircuit returns an empty circuit on n qubits.
func NewCircuit(n int) *Circuit { return circuit.New(n) }

// NewGate builds a gate by its QASM-style name (x, h, rz, cx, ccx, …)
// with the appropriate number of parameters. It returns an error for
// unknown names or wrong parameter counts.
func NewGate(name string, params ...float64) (Gate, error) {
	kind := gate.Kind(name)
	spec, ok := gate.Registry[kind]
	if !ok {
		return Gate{}, fmt.Errorf("epoc: unknown gate %q", name)
	}
	if len(params) != spec.Params {
		return Gate{}, fmt.Errorf("epoc: gate %q wants %d params, got %d", name, spec.Params, len(params))
	}
	return gate.New(kind, params...), nil
}

// ParseQASM parses OpenQASM 2.0 source into a program (a flat circuit
// plus register metadata).
func ParseQASM(src string) (*QASMProgram, error) { return qasm.Parse(src) }

// WriteQASM renders a circuit back to OpenQASM 2.0.
func WriteQASM(c *Circuit) (string, error) { return qasm.Write(c) }

// LinearDevice returns an IBM-flavoured n-qubit device with a linear
// coupler chain and calibrated basis-gate pulses.
func LinearDevice(n int) *Device { return hardware.LinearChain(n) }

// NewPulseLibrary creates a pulse library; matchGlobalPhase enables
// EPOC's phase-aware unitary matching (higher hit rates).
func NewPulseLibrary(matchGlobalPhase bool) *PulseLibrary {
	return pulse.NewLibrary(matchGlobalPhase)
}

// NewRecorder creates an observability recorder. Set it as
// CompileOptions.Obs (it is goroutine-safe and may be shared across
// compilations), then read results with Recorder.Snapshot.
func NewRecorder() *Recorder { return obs.New() }

// NewTracer creates a span tracer reading the real clock. Set it as
// CompileOptions.Trace, then export with Tracer.ChromeTrace after the
// compile returns.
func NewTracer() *Tracer { return trace.New(nil) }

// Compile lowers a circuit to a pulse schedule under the options'
// strategy (full EPOC by default).
func Compile(c *Circuit, opts CompileOptions) (*Result, error) {
	return core.Compile(c, opts)
}

// CompileContext is Compile with a context. Canceling ctx aborts the
// compilation promptly at the next checkpoint — stage boundaries,
// synthesis node expansions, optimizer iterations — returning ctx's
// error with no partial result and no leaked goroutines. Budget
// expiry (CompileOptions.Budgets) is independent: it degrades rather
// than aborts.
func CompileContext(ctx context.Context, c *Circuit, opts CompileOptions) (*Result, error) {
	return core.CompileContext(ctx, c, opts)
}

// DepthOptimize runs only the graph-based (ZX) depth-optimization
// stage and returns a verified equivalent circuit that is never deeper
// than the input.
func DepthOptimize(c *Circuit) *Circuit { return core.DepthOptimize(c) }

// Benchmark returns one of the built-in evaluation circuits by name
// (see BenchmarkNames).
func Benchmark(name string) (*Circuit, error) { return benchcirc.Get(name) }

// BenchmarkNames lists the built-in evaluation circuits.
func BenchmarkNames() []string { return benchcirc.Names() }

// Strategies lists all compilation strategies in report order.
func Strategies() []Strategy { return core.Strategies() }
