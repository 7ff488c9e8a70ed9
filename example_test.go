package epoc_test

import (
	"context"
	"fmt"

	"epoc"
	"epoc/internal/core"
)

// ExampleParseQASM parses OpenQASM 2.0 source and inspects the circuit.
func ExampleParseQASM() {
	prog, err := epoc.ParseQASM(`
OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
h q[0];
cx q[0],q[1];
`)
	if err != nil {
		panic(err)
	}
	fmt.Println(prog.Circuit.NumQubits, "qubits,", prog.Circuit.Len(), "gates, depth", prog.Circuit.Depth())
	// Output: 2 qubits, 2 gates, depth 2
}

// ExampleCompile lowers a Bell circuit to pulses with the gate-based
// baseline, whose calibrated latencies are deterministic.
func ExampleCompile() {
	c := epoc.NewCircuit(2)
	h, _ := epoc.NewGate("h")
	cx, _ := epoc.NewGate("cx")
	c.Append(h, 0)
	c.Append(cx, 0, 1)

	res, err := epoc.Compile(c, epoc.CompileOptions{
		Strategy: epoc.StrategyGateBased,
		Device:   epoc.LinearDevice(2),
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("latency %.1f ns, %d pulses\n", res.Latency, res.Stats.PulseCount)
	// Output: latency 335.5 ns, 2 pulses
}

// ExampleDepthOptimize shows the graph-based (ZX) depth optimization
// stage cancelling a redundant structure.
func ExampleDepthOptimize() {
	c := epoc.NewCircuit(2)
	h, _ := epoc.NewGate("h")
	cx, _ := epoc.NewGate("cx")
	s, _ := epoc.NewGate("s")
	sdg, _ := epoc.NewGate("sdg")
	c.Append(h, 0)
	c.Append(s, 0)
	c.Append(sdg, 0) // cancels with s
	c.Append(h, 0)   // cancels with h
	c.Append(cx, 0, 1)

	opt := epoc.DepthOptimize(c)
	fmt.Println("depth", c.Depth(), "->", opt.Depth())
	// Output: depth 5 -> 1
}

// ExampleCompile_strategies compares strategies on the same workload
// using the deterministic calibrated-estimate QOC mode.
func ExampleCompile_strategies() {
	c, _ := epoc.Benchmark("ghz")
	dev := epoc.LinearDevice(c.NumQubits)
	for _, s := range []epoc.Strategy{epoc.StrategyGateBased, epoc.StrategyEPOC} {
		res, err := epoc.Compile(c, epoc.CompileOptions{
			Strategy: s,
			Device:   dev,
			Mode:     core.QOCEstimate,
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: %.1f ns\n", s, res.Latency)
	}
	// Output:
	// gate-based: 2135.5 ns
	// epoc: 784.0 ns
}

// ExampleCompileContext compiles under a context and budgets. A
// canceled context aborts with an error; an exhausted budget instead
// degrades — here a one-node synthesis budget forces every block onto
// its gate-level fallback, and the result reports why.
func ExampleCompileContext() {
	c, _ := epoc.Benchmark("ghz")
	res, err := epoc.CompileContext(context.Background(), c, epoc.CompileOptions{
		Strategy: epoc.StrategyEPOC,
		Device:   epoc.LinearDevice(c.NumQubits),
		Mode:     epoc.QOCEstimate,
		Budgets:  epoc.Budgets{SynthNodes: 1},
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("degraded:", res.Degraded, res.DegradeReasons)
	// Output: degraded: true [synth]
}

// ExampleNewRecorder attaches an observability recorder to a compile
// and reads its counters from the snapshot.
func ExampleNewRecorder() {
	rec := epoc.NewRecorder()
	c, _ := epoc.Benchmark("ghz")
	_, err := epoc.Compile(c, epoc.CompileOptions{
		Strategy: epoc.StrategyEPOC,
		Device:   epoc.LinearDevice(c.NumQubits),
		Mode:     epoc.QOCEstimate,
		Obs:      rec,
	})
	if err != nil {
		panic(err)
	}
	snap := rec.Snapshot()
	fmt.Println("compiles:", snap.Counters["compiles"],
		"cache misses:", snap.Counters["synthcache/miss"])
	// Output: compiles: 1 cache misses: 1
}

// ExampleNewPulseLibrary shows pulse reuse across compilations.
func ExampleNewPulseLibrary() {
	lib := epoc.NewPulseLibrary(true)
	c, _ := epoc.Benchmark("ghz")
	opts := epoc.CompileOptions{
		Strategy: epoc.StrategyEPOC,
		Device:   epoc.LinearDevice(c.NumQubits),
		Mode:     core.QOCEstimate,
		Library:  lib,
	}
	if _, err := epoc.Compile(c, opts); err != nil {
		panic(err)
	}
	res, err := epoc.Compile(c, opts)
	if err != nil {
		panic(err)
	}
	fmt.Println("new misses on recompile:", res.Stats.LibraryMisses)
	// Output: new misses on recompile: 0
}
