package zx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"epoc/internal/circuit"
	"epoc/internal/gate"
	"epoc/internal/linalg"
)

// roundTrip converts, optionally simplifies, extracts and compares
// unitaries up to global phase.
func roundTrip(t *testing.T, c *circuit.Circuit, simplify bool, context string) *circuit.Circuit {
	t.Helper()
	g := FromCircuit(c)
	if simplify {
		g.Simplify()
	} else {
		g.ToGraphLike()
	}
	out, err := g.ToCircuit()
	if err != nil {
		t.Fatalf("%s: extraction failed: %v\n%s", context, err, g)
	}
	d := linalg.PhaseDistance(c.Unitary(), out.Unitary())
	if d > 1e-7 {
		t.Fatalf("%s: round trip changed unitary (distance %v)\noriginal:\n%s\nextracted:\n%s",
			context, d, c, out)
	}
	return out
}

func TestEmptyCircuitRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		roundTrip(t, circuit.New(n), false, "empty")
		roundTrip(t, circuit.New(n), true, "empty simplified")
	}
}

func TestSingleGateRoundTrips(t *testing.T) {
	cases := []struct {
		name  string
		build func() *circuit.Circuit
	}{
		{"H", func() *circuit.Circuit { return circuit.New(1).Append(gate.New(gate.H), 0) }},
		{"X", func() *circuit.Circuit { return circuit.New(1).Append(gate.New(gate.X), 0) }},
		{"Z", func() *circuit.Circuit { return circuit.New(1).Append(gate.New(gate.Z), 0) }},
		{"S", func() *circuit.Circuit { return circuit.New(1).Append(gate.New(gate.S), 0) }},
		{"T", func() *circuit.Circuit { return circuit.New(1).Append(gate.New(gate.T), 0) }},
		{"RZ", func() *circuit.Circuit { return circuit.New(1).Append(gate.New(gate.RZ, 0.7), 0) }},
		{"RX", func() *circuit.Circuit { return circuit.New(1).Append(gate.New(gate.RX, 1.1), 0) }},
		{"CX", func() *circuit.Circuit { return circuit.New(2).Append(gate.New(gate.CX), 0, 1) }},
		{"CXrev", func() *circuit.Circuit { return circuit.New(2).Append(gate.New(gate.CX), 1, 0) }},
		{"CZ", func() *circuit.Circuit { return circuit.New(2).Append(gate.New(gate.CZ), 0, 1) }},
		{"SWAP", func() *circuit.Circuit { return circuit.New(2).Append(gate.New(gate.SWAP), 0, 1) }},
	}
	for _, tc := range cases {
		roundTrip(t, tc.build(), false, tc.name+" unsimplified")
		roundTrip(t, tc.build(), true, tc.name+" simplified")
	}
}

func TestBellAndGHZRoundTrip(t *testing.T) {
	bell := circuit.New(2)
	bell.Append(gate.New(gate.H), 0)
	bell.Append(gate.New(gate.CX), 0, 1)
	roundTrip(t, bell, true, "bell")

	ghz := circuit.New(3)
	ghz.Append(gate.New(gate.H), 0)
	ghz.Append(gate.New(gate.CX), 0, 1)
	ghz.Append(gate.New(gate.CX), 1, 2)
	roundTrip(t, ghz, true, "ghz")
}

func TestFromCircuitStructure(t *testing.T) {
	c := circuit.New(2)
	c.Append(gate.New(gate.H), 0)
	c.Append(gate.New(gate.CX), 0, 1)
	g := FromCircuit(c)
	if len(g.Inputs) != 2 || len(g.Outputs) != 2 {
		t.Fatal("boundary counts wrong")
	}
	// CX adds one Z and one X spider.
	zs, xs := 0, 0
	for _, v := range g.Vertices() {
		switch g.kind[v] {
		case ZSpider:
			zs++
		case XSpider:
			xs++
		}
	}
	if zs != 1 || xs != 1 {
		t.Fatalf("spiders: %d Z, %d X", zs, xs)
	}
}

func TestColorChangeRemovesXSpiders(t *testing.T) {
	c := circuit.New(2)
	c.Append(gate.New(gate.CX), 0, 1)
	c.Append(gate.New(gate.RX, 0.4), 0)
	g := FromCircuit(c)
	g.ToGraphLike()
	for _, v := range g.Vertices() {
		if g.kind[v] == XSpider {
			t.Fatal("X spider survived ToGraphLike")
		}
	}
	// All spider-spider edges must be Hadamard.
	for _, v := range g.Vertices() {
		if g.kind[v] != ZSpider {
			continue
		}
		for _, w := range g.Neighbors(v) {
			if g.kind[w] == ZSpider {
				if k, _ := g.Edge(v, w); k != Hadamard {
					t.Fatal("simple spider-spider edge survived ToGraphLike")
				}
			}
		}
	}
}

func TestFusionMergesPhases(t *testing.T) {
	c := circuit.New(1)
	c.Append(gate.New(gate.RZ, 0.3), 0)
	c.Append(gate.New(gate.RZ, 0.4), 0)
	g := FromCircuit(c)
	g.ToGraphLike()
	var phases []float64
	for _, v := range g.Vertices() {
		if g.kind[v] == ZSpider && !phaseIsZero(g.phase[v]) {
			phases = append(phases, g.phase[v])
		}
	}
	if len(phases) != 1 || math.Abs(phases[0]-0.7) > 1e-9 {
		t.Fatalf("fusion phases: %v", phases)
	}
}

func TestSimplifyReducesSpiderCount(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := randomCliffordT(4, 60, rng)
	g := FromCircuit(c)
	before := g.NumSpiders()
	g.Simplify()
	after := g.NumSpiders()
	if after >= before {
		t.Fatalf("Simplify did not reduce spiders: %d -> %d", before, after)
	}
}

func TestRoundTripRandomCliffords(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(3)
		c := randomClifford(n, 10+rng.Intn(30), rng)
		roundTrip(t, c, true, "random clifford")
	}
}

func TestRoundTripRandomCliffordT(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(3)
		c := randomCliffordT(n, 10+rng.Intn(30), rng)
		roundTrip(t, c, true, "random clifford+T")
	}
}

func TestRoundTripRandomRotations(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(3)
		c := randomRotations(n, 10+rng.Intn(25), rng)
		roundTrip(t, c, true, "random rotations")
	}
}

func TestRoundTripUnsimplified(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 10; trial++ {
		c := randomCliffordT(3, 20, rng)
		roundTrip(t, c, false, "unsimplified")
	}
}

func TestOptimizeReducesDepthOnCliffordHeavy(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	improved := 0
	for trial := 0; trial < 10; trial++ {
		c := randomClifford(4, 60, rng)
		out := roundTrip(t, c, true, "depth check")
		if out.Depth() < c.Depth() {
			improved++
		}
	}
	if improved < 5 {
		t.Fatalf("Simplify+extract rarely reduces Clifford depth (%d/10)", improved)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCliffordT(3, 15+rng.Intn(15), rng)
		g := FromCircuit(c)
		g.Simplify()
		out, err := g.ToCircuit()
		if err != nil {
			return false
		}
		return linalg.PhaseDistance(c.Unitary(), out.Unitary()) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGraphBasics(t *testing.T) {
	g := NewGraph()
	a := g.AddVertex(ZSpider, 0.5)
	b := g.AddVertex(XSpider, 0)
	g.SetEdge(a, b, Hadamard)
	if g.NumVertices() != 2 || g.NumEdges() != 1 {
		t.Fatal("counts wrong")
	}
	if k, ok := g.Edge(b, a); !ok || k != Hadamard {
		t.Fatal("edge lookup wrong")
	}
	g.AddToPhase(a, 2*math.Pi-0.5)
	if !phaseIsZero(g.phase[a]) {
		t.Fatalf("phase wrap: %v", g.phase[a])
	}
	g.RemoveVertex(b)
	if g.Degree(a) != 0 {
		t.Fatal("RemoveVertex left a dangling edge")
	}
	if len(g.String()) == 0 {
		t.Fatal("empty String")
	}
}

func TestPhasePredicates(t *testing.T) {
	if !phaseIsPauli(0) || !phaseIsPauli(math.Pi) || phaseIsPauli(math.Pi/2) {
		t.Fatal("phaseIsPauli wrong")
	}
	if !phaseIsProperClifford(math.Pi/2) || !phaseIsProperClifford(-math.Pi/2) || phaseIsProperClifford(math.Pi) {
		t.Fatal("phaseIsProperClifford wrong")
	}
}

func randomClifford(n, ops int, rng *rand.Rand) *circuit.Circuit {
	c := circuit.New(n)
	kinds := []gate.Kind{gate.H, gate.S, gate.Sdg, gate.X, gate.Z}
	for i := 0; i < ops; i++ {
		if rng.Intn(3) == 0 && n > 1 {
			a := rng.Intn(n)
			b := (a + 1 + rng.Intn(n-1)) % n
			if rng.Intn(2) == 0 {
				c.Append(gate.New(gate.CX), a, b)
			} else {
				c.Append(gate.New(gate.CZ), a, b)
			}
		} else {
			c.Append(gate.New(kinds[rng.Intn(len(kinds))]), rng.Intn(n))
		}
	}
	return c
}

func randomCliffordT(n, ops int, rng *rand.Rand) *circuit.Circuit {
	c := circuit.New(n)
	kinds := []gate.Kind{gate.H, gate.S, gate.T, gate.Tdg, gate.X, gate.Z}
	for i := 0; i < ops; i++ {
		if rng.Intn(3) == 0 && n > 1 {
			a := rng.Intn(n)
			b := (a + 1 + rng.Intn(n-1)) % n
			c.Append(gate.New(gate.CX), a, b)
		} else {
			c.Append(gate.New(kinds[rng.Intn(len(kinds))]), rng.Intn(n))
		}
	}
	return c
}

func randomRotations(n, ops int, rng *rand.Rand) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < ops; i++ {
		switch rng.Intn(5) {
		case 0:
			c.Append(gate.New(gate.H), rng.Intn(n))
		case 1:
			c.Append(gate.New(gate.RZ, rng.Float64()*2*math.Pi), rng.Intn(n))
		case 2:
			c.Append(gate.New(gate.RX, rng.Float64()*2*math.Pi), rng.Intn(n))
		default:
			a := rng.Intn(n)
			b := (a + 1 + rng.Intn(n-1)) % n
			c.Append(gate.New(gate.CX), a, b)
		}
	}
	return c
}
