// Command zxopt runs only the graph-based (ZX-calculus) depth
// optimization stage on an OpenQASM 2.0 program and reports the depth
// change, optionally writing the optimized circuit back as QASM.
//
// Usage:
//
//	zxopt -in circuit.qasm [-out optimized.qasm]
//	zxopt -bench vqe
//	zxopt -bench vqe -cpuprofile cpu.pb   # profile the rewrite engine
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"epoc/internal/benchcirc"
	"epoc/internal/circuit"
	"epoc/internal/core"
	"epoc/internal/debugsrv"
	"epoc/internal/qasm"
	"epoc/internal/zx"
)

func main() {
	var (
		in         = flag.String("in", "", "input OpenQASM 2.0 file ('-' for stdin)")
		bench      = flag.String("bench", "", "use a built-in benchmark circuit instead of -in")
		out        = flag.String("out", "", "write the optimized circuit as QASM to this file")
		cpuprofile = flag.String("cpuprofile", "", "write a runtime/pprof CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a runtime/pprof heap profile to this file")
		debugAddr  = flag.String("debug-addr", "", "serve /debug/pprof on this address while optimizing (e.g. localhost:6060)")
	)
	flag.Parse()

	if *debugAddr != "" {
		addr, err := debugsrv.Serve(*debugAddr, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "zxopt: debug server on http://%s/debug/pprof\n", addr)
	}

	stopProf, err := debugsrv.StartCPUProfile(*cpuprofile)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	c, err := loadCircuit(*in, *bench)
	if err != nil {
		fatal(err)
	}
	opt := core.DepthOptimize(c)
	before := zx.FromCircuit(c)
	after := zx.FromCircuit(c)
	after.FullSimplify()
	fmt.Printf("qubits:       %d\n", c.NumQubits)
	fmt.Printf("depth:        %d -> %d (%.2fx)\n", c.Depth(), opt.Depth(),
		float64(c.Depth())/float64(max(1, opt.Depth())))
	fmt.Printf("gate count:   %d -> %d\n", c.Len(), opt.Len())
	fmt.Printf("2q gates:     %d -> %d\n", c.TwoQubitCount(), opt.TwoQubitCount())
	fmt.Printf("spiders:      %d -> %d (full_reduce)\n", before.NumSpiders(), after.NumSpiders())
	fmt.Printf("T-count:      %d -> %d\n", before.TCount(), after.TCount())
	if *out != "" {
		src, err := qasm.Write(opt)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, []byte(src), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote:        %s\n", *out)
	}
	if err := debugsrv.WriteHeapProfile(*memprofile); err != nil {
		fatal(err)
	}
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
	return nil, fmt.Errorf("one of -in or -bench is required")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "zxopt:", err)
	os.Exit(1)
}
