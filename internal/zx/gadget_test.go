package zx

import (
	"math"
	"math/rand"
	"testing"

	"epoc/internal/circuit"
	"epoc/internal/gate"
	"epoc/internal/linalg"
)

// fullRoundTrip converts, FullSimplify-es, extracts and compares.
func fullRoundTrip(t *testing.T, c *circuit.Circuit, context string) *circuit.Circuit {
	t.Helper()
	g := FromCircuit(c)
	g.FullSimplify()
	out, err := g.ToCircuit()
	if err != nil {
		t.Fatalf("%s: extraction failed: %v", context, err)
	}
	if d := linalg.PhaseDistance(c.Unitary(), out.Unitary()); d > 1e-7 {
		t.Fatalf("%s: full_reduce round trip changed unitary (distance %v)", context, d)
	}
	return out
}

func TestFullSimplifySingleGates(t *testing.T) {
	for _, k := range []gate.Kind{gate.T, gate.S, gate.H, gate.X} {
		c := circuit.New(1).Append(gate.New(k), 0)
		fullRoundTrip(t, c, string(k))
	}
	c := circuit.New(2).Append(gate.New(gate.CX), 0, 1)
	fullRoundTrip(t, c, "cx")
}

func TestFullSimplifyPhasePolynomial(t *testing.T) {
	// A classic phase-polynomial circuit: CX ladders with RZ cores.
	// full_reduce should fuse the repeated ZZ-phase gadgets.
	c := circuit.New(3)
	for rep := 0; rep < 3; rep++ {
		c.Append(gate.New(gate.CX), 0, 1)
		c.Append(gate.New(gate.RZ, 0.3), 1)
		c.Append(gate.New(gate.CX), 0, 1)
	}
	out := fullRoundTrip(t, c, "phase polynomial")
	// Three identical gadgets fuse into one rotation's worth of work.
	if out.TwoQubitCount() > 2 {
		t.Fatalf("gadget fusion failed: %d two-qubit gates (want <= 2):\n%s", out.TwoQubitCount(), out)
	}
}

func TestFullSimplifyRandomCliffordT(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 12; trial++ {
		n := 2 + rng.Intn(3)
		c := randomCliffordT(n, 15+rng.Intn(25), rng)
		fullRoundTrip(t, c, "random clifford+T")
	}
}

func TestFullSimplifyRandomRotations(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 12; trial++ {
		n := 2 + rng.Intn(3)
		c := randomRotations(n, 15+rng.Intn(20), rng)
		fullRoundTrip(t, c, "random rotations")
	}
}

func TestFullSimplifyReducesTCount(t *testing.T) {
	// T gates sandwiched in CX conjugation: the same ZZ-gadget appears
	// twice and must fuse (the Kissinger–van de Wetering phase
	// teleportation effect).
	c := circuit.New(2)
	c.Append(gate.New(gate.CX), 0, 1)
	c.Append(gate.New(gate.T), 1)
	c.Append(gate.New(gate.CX), 0, 1)
	c.Append(gate.New(gate.X), 0)
	c.Append(gate.New(gate.CX), 0, 1)
	c.Append(gate.New(gate.T), 1)
	c.Append(gate.New(gate.CX), 0, 1)
	out := fullRoundTrip(t, c, "phase teleportation")
	// Count non-Clifford 1q rotations in the output: full_reduce must
	// never inflate the T-count (2 here), and usually fuses them.
	nonClifford := 0
	for _, op := range out.Ops {
		if op.G.Kind == gate.RZ && !cliffordAngle(op.G.Params[0]) {
			nonClifford++
		}
		if op.G.Kind == gate.T || op.G.Kind == gate.Tdg {
			nonClifford++
		}
	}
	if nonClifford > 2 {
		t.Fatalf("T-count inflated: %d non-Clifford rotations\n%s", nonClifford, out)
	}
}

func TestGadgetFusionDirect(t *testing.T) {
	// Build two gadgets with identical legs by hand and fuse them.
	g := NewGraph()
	l1 := g.AddVertex(ZSpider, 0.3)
	a1 := g.AddVertex(ZSpider, 0)
	l2 := g.AddVertex(ZSpider, 0.4)
	a2 := g.AddVertex(ZSpider, 0)
	leg1 := g.AddVertex(ZSpider, 0.1)
	leg2 := g.AddVertex(ZSpider, 0.2)
	g.SetEdge(l1, a1, Hadamard)
	g.SetEdge(l2, a2, Hadamard)
	for _, axis := range []int{a1, a2} {
		g.SetEdge(axis, leg1, Hadamard)
		g.SetEdge(axis, leg2, Hadamard)
	}
	if !g.fuseGadgets() {
		t.Fatal("fuseGadgets found nothing")
	}
	// One gadget remains (the other axis+leaf were deleted), and the
	// surviving leaf carries the summed phase 0.3+0.4.
	if g.NumVertices() != 4 {
		t.Fatalf("expected 4 vertices after fusion, got %d", g.NumVertices())
	}
	survivor := l1
	if !g.alive[l1] {
		survivor = l2
	}
	if math.Abs(g.phase[survivor]-0.7) > 1e-9 {
		t.Fatalf("fused leaf phase %v, want 0.7", g.phase[survivor])
	}
}

func TestIsGadgetAxis(t *testing.T) {
	g := NewGraph()
	leaf := g.AddVertex(ZSpider, 0.5)
	axis := g.AddVertex(ZSpider, 0)
	leg := g.AddVertex(ZSpider, 0)
	other := g.AddVertex(ZSpider, 0)
	anchor := g.AddVertex(ZSpider, 0.3)
	g.SetEdge(leaf, axis, Hadamard)
	g.SetEdge(axis, leg, Hadamard)
	g.SetEdge(leg, other, Hadamard)
	// Keep every non-leaf vertex at degree ≥ 2 so the axis is unambiguous.
	g.SetEdge(other, anchor, Hadamard)
	g.SetEdge(anchor, leg, Hadamard)
	if !g.isGadgetAxis(axis) {
		t.Fatal("axis not recognized")
	}
	if g.isGadgetAxis(leg) || g.isGadgetAxis(leaf) || g.isGadgetAxis(other) {
		t.Fatal("non-axis recognized as axis")
	}
	if g.gadgetLeaf(axis) != leaf {
		t.Fatal("wrong leaf")
	}
}

func TestFullSimplifyVQEStyle(t *testing.T) {
	// UCCSD-like structure: basis change + ladder + RZ + ladder + undo,
	// twice with different angles — gadgets over the same legs fuse.
	c := circuit.New(3)
	term := func(theta float64) {
		c.Append(gate.New(gate.H), 0)
		c.Append(gate.New(gate.H), 2)
		c.Append(gate.New(gate.CX), 0, 1)
		c.Append(gate.New(gate.CX), 1, 2)
		c.Append(gate.New(gate.RZ, theta), 2)
		c.Append(gate.New(gate.CX), 1, 2)
		c.Append(gate.New(gate.CX), 0, 1)
		c.Append(gate.New(gate.H), 0)
		c.Append(gate.New(gate.H), 2)
	}
	term(0.4)
	term(0.9)
	out := fullRoundTrip(t, c, "uccsd terms")
	if out.TwoQubitCount() >= c.TwoQubitCount() {
		t.Fatalf("full_reduce did not reduce 2q count: %d -> %d",
			c.TwoQubitCount(), out.TwoQubitCount())
	}
}

func cliffordAngle(theta float64) bool {
	m := math.Mod(theta, math.Pi/2)
	if m < 0 {
		m += math.Pi / 2
	}
	return m < 1e-9 || math.Pi/2-m < 1e-9
}

func TestTCount(t *testing.T) {
	c := circuit.New(2)
	c.Append(gate.New(gate.T), 0)
	c.Append(gate.New(gate.T), 1)
	c.Append(gate.New(gate.S), 0) // Clifford: not counted
	c.Append(gate.New(gate.RZ, 0.3), 1)
	g := FromCircuit(c)
	if got := g.TCount(); got != 3 {
		t.Fatalf("TCount = %d, want 3 (two T + one arbitrary RZ)", got)
	}
	// Phase teleportation through full_reduce must not raise it.
	g.FullSimplify()
	if got := g.TCount(); got > 3 {
		t.Fatalf("FullSimplify raised T-count to %d", got)
	}
}
