package qasm

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"epoc/internal/sim"
)

// TestParseTestdataFiles loads realistic QASM programs from disk —
// the kind of files QASMBench ships — and sanity-checks the parsed
// circuits.
func TestParseTestdataFiles(t *testing.T) {
	files, err := filepath.Glob("testdata/*.qasm")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 3 {
		t.Fatalf("expected at least 3 testdata programs, found %d", len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if prog.Circuit.Len() == 0 {
			t.Fatalf("%s: empty circuit", f)
		}
	}
}

func TestTeleportFile(t *testing.T) {
	src, err := os.ReadFile("testdata/teleport.qasm")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	if prog.Measures != 2 || prog.Barriers != 1 {
		t.Fatalf("measures=%d barriers=%d", prog.Measures, prog.Barriers)
	}
	if prog.Circuit.NumQubits != 3 {
		t.Fatalf("qubits = %d", prog.Circuit.NumQubits)
	}
}

func TestGroverFileAmplifies(t *testing.T) {
	src, err := os.ReadFile("testdata/grover_n3.qasm")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	s := sim.RunCircuit(prog.Circuit)
	// One Grover iteration marking |101> pushes its probability well
	// above uniform (1/8).
	if p := s.Probability(5); p < 0.5 {
		t.Fatalf("marked-state probability %v", p)
	}
}

func TestQFTFileIsUniformOnZero(t *testing.T) {
	src, err := os.ReadFile("testdata/qft_n4.qasm")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	s := sim.RunCircuit(prog.Circuit)
	for i := range s.Amp {
		if p := s.Probability(i); math.Abs(p-1.0/16) > 1e-9 {
			t.Fatalf("QFT|0> not uniform at %d: %v", i, p)
		}
	}
}
