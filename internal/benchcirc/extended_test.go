package benchcirc

import (
	"math"
	"testing"

	"epoc/internal/sim"
)

func TestExtendedBenchmarksBuild(t *testing.T) {
	if len(ExtendedNames()) != 8 {
		t.Fatalf("extended set has %d benchmarks", len(ExtendedNames()))
	}
	for _, name := range ExtendedNames() {
		c, err := Get(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.Len() == 0 || c.Depth() == 0 {
			t.Fatalf("%s: trivial circuit", name)
		}
	}
	if len(AllNames()) != 25 {
		t.Fatalf("AllNames has %d entries", len(AllNames()))
	}
}

func TestDeutschJozsaBalancedOracle(t *testing.T) {
	s := sim.RunCircuit(DeutschJozsa())
	// Balanced oracle: probability of measuring all-zeros on the input
	// register must be 0.
	p := 0.0
	for anc := 0; anc < 2; anc++ {
		p += s.Probability(anc << 5)
	}
	if p > 1e-9 {
		t.Fatalf("balanced oracle gave all-zeros probability %v", p)
	}
}

func TestQECBitFlipCorrects(t *testing.T) {
	s := sim.RunCircuit(QECBitFlip())
	// After encode → X error on q1 → syndrome → correct → decode, the
	// data qubit must hold RY(0.83)|0> and q1, q2 must be |0>; the
	// ancillas carry the syndrome 11.
	want0 := math.Cos(0.83 / 2) // amplitude of |0> on the data qubit
	// Basis index: ancillas q3=1, q4=1 → 0b11000 = 24; data q0 ∈ {0,1}.
	p0 := s.Probability(24)
	p1 := s.Probability(25)
	if math.Abs(p0-want0*want0) > 1e-9 {
		t.Fatalf("data |0> probability %v, want %v", p0, want0*want0)
	}
	if math.Abs(p0+p1-1) > 1e-9 {
		t.Fatalf("leakage outside the corrected subspace: %v", 1-p0-p1)
	}
}

func TestHiddenShiftRecoversShift(t *testing.T) {
	s := sim.RunCircuit(HiddenShift())
	// The algorithm concentrates on the shift string 1010 (q0=0, q1=1,
	// q2=0, q3=1 → index 0b1010 = 10).
	if p := s.Probability(10); p < 0.99 {
		t.Fatalf("shift probability %v", p)
	}
}

func TestMultiplierComputesProduct(t *testing.T) {
	s := sim.RunCircuit(Multiplier())
	// a=3, b=2 → product 6 on (q6 q5 q4) = 110, with inputs intact:
	// q0=1,q1=1 (a=3), q3=1 (b=2).
	idx := 1 | 1<<1 | 1<<3 | 1<<5 | 1<<6
	if p := s.Probability(idx); math.Abs(p-1) > 1e-9 {
		t.Fatalf("product state probability %v", p)
	}
}

func TestTeleportDeliversPayload(t *testing.T) {
	s := sim.RunCircuit(Teleport())
	// The payload U3(0.62,0.41,0.27)|0> must arrive on qubit 2
	// regardless of the measurement outcomes (qubits 0,1 arbitrary).
	// Check: probability that qubit 2 is |1> equals sin²(θ/2).
	want := math.Sin(0.31) * math.Sin(0.31)
	got := 0.0
	for idx := 0; idx < 8; idx++ {
		if idx&4 != 0 {
			got += s.Probability(idx)
		}
	}
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("teleported P(1) = %v, want %v", got, want)
	}
}

func TestQuantumWalkSpreads(t *testing.T) {
	s := sim.RunCircuit(QuantumWalk())
	// After two steps from position 0 the walker must have left the
	// origin with nonzero probability and the state stays normalized.
	atOrigin := s.Probability(0) + s.Probability(4)
	if atOrigin > 0.99 {
		t.Fatal("walker did not move")
	}
	if math.Abs(math.Sqrt(real(s.Overlap(s)))-1) > 1e-9 {
		t.Fatal("norm broken")
	}
}

func TestSupremacyEntangles(t *testing.T) {
	c := Supremacy()
	if c.TwoQubitCount() < 10 {
		t.Fatalf("supremacy circuit has only %d 2q gates", c.TwoQubitCount())
	}
	s := sim.RunCircuit(c)
	// Output distribution should be spread (Porter-Thomas-like): no
	// basis state dominates.
	for i := range s.Amp {
		if p := s.Probability(i); p > 0.5 {
			t.Fatalf("state %d carries probability %v", i, p)
		}
	}
}

func TestExtendedDisjointFromPaperSet(t *testing.T) {
	paper := map[string]bool{}
	for _, n := range Names() {
		paper[n] = true
	}
	for _, n := range ExtendedNames() {
		if paper[n] {
			t.Fatalf("%s appears in both registries", n)
		}
	}
}
