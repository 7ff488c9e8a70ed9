package core

import (
	"fmt"
	"testing"

	"epoc/internal/benchcirc"
	"epoc/internal/circuit"
	"epoc/internal/densesim"
	"epoc/internal/hardware"
	"epoc/internal/linalg"
	"epoc/internal/qasm"
)

// equivTol bounds the phase-invariant distance between the input and
// the lowered circuit. Each synthesized block is within 1e-7 of its
// target in HS cost, i.e. ~3e-4 in PhaseDistance (the sqrt of the
// cost); a dozen blocks compose to a few 1e-3, so 1e-2 leaves an
// order of magnitude of headroom while still catching any dropped,
// reordered or corrupted block outright (those score ~1).
const equivTol = 1e-2

// TestCompileEquivalenceRandomCircuits is the end-to-end backstop for
// the parallel synthesis dispatcher: seeded random circuits, compiled
// under every QOC strategy and worker count, must produce a lowered
// circuit whose unitary matches the input up to global phase — both
// as a full operator and as a density-matrix evolution of |0…0⟩
// (which is global-phase-free by construction).
func TestCompileEquivalenceRandomCircuits(t *testing.T) {
	strategies := []Strategy{AccQOC, PAQOC, EPOCNoGroup, EPOC}
	cases := []struct {
		n, depth int
		seed     int64
	}{
		{3, 8, 1},
		{4, 10, 2},
		{5, 12, 3},
	}
	for _, tc := range cases {
		c := benchcirc.RandomCircuit(tc.n, tc.depth, tc.seed)
		want := c.Unitary()
		wantRho := densityOf(c)
		for _, strat := range strategies {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("%s/n%d-seed%d-w%d", strat, tc.n, tc.seed, workers)
				t.Run(name, func(t *testing.T) {
					res, err := Compile(c, Options{
						Strategy: strat,
						Device:   hardware.LinearChain(tc.n),
						Mode:     QOCEstimate,
						Workers:  workers,
					})
					if err != nil {
						t.Fatal(err)
					}
					if res.Lowered == nil {
						t.Fatal("QOC flow returned no lowered circuit")
					}
					got := res.Lowered.Unitary()
					if d := linalg.PhaseDistance(want, got); d > equivTol {
						t.Fatalf("lowered circuit diverged: phase distance %g", d)
					}
					if d := linalg.FrobeniusDistance(wantRho, densityOf(res.Lowered)); d > equivTol {
						t.Fatalf("density evolution diverged: Frobenius distance %g", d)
					}
				})
			}
		}
	}
}

// TestCompileEquivalenceGateBased: the gate-based flow never lowers
// through blocks, so it reports no lowered circuit.
func TestCompileEquivalenceGateBased(t *testing.T) {
	c := benchcirc.RandomCircuit(3, 6, 4)
	res, err := Compile(c, Options{Strategy: GateBased, Device: hardware.LinearChain(3)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lowered != nil {
		t.Fatal("gate-based flow should not report a lowered circuit")
	}
}

// TestCompileControlledRotationPairQASM: two CRZ(3) on the same qubits
// sum to 6, past 2π but not a multiple of the controlled rotation's 4π
// period. A 2π-periodic merge (crz(6−2π), off by Z on the control)
// must not reach the lowered circuit. Checked on product states with
// the state-vector simulator.
func TestCompileControlledRotationPairQASM(t *testing.T) {
	prog, err := qasm.Parse(`OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
crz(3) q[0],q[1];
crz(3) q[0],q[1];
`)
	if err != nil {
		t.Fatal(err)
	}
	in := prog.Circuit
	res, err := Compile(in, Options{Strategy: EPOC, Device: hardware.LinearChain(2), Mode: QOCEstimate})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lowered == nil {
		t.Fatal("QOC flow returned no lowered circuit")
	}
	for i, s0 := range deterministicStates(in.NumQubits, 3) {
		want, got := s0.Clone(), s0.Clone()
		want.Run(in)
		got.Run(res.Lowered)
		if f := want.Fidelity(got); f < 1-equivTol {
			t.Fatalf("product state %d: lowered circuit fidelity %g with the input", i, f)
		}
	}
}

// densityOf evolves |0…0⟩⟨0…0| through the circuit (densesim), giving
// a global-phase-free view of its action.
func densityOf(c *circuit.Circuit) *linalg.Matrix {
	d := densesim.NewDensity(c.NumQubits)
	for _, op := range c.Ops {
		d.ApplyOp(op)
	}
	return d.Rho
}
