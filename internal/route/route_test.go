package route

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"epoc/internal/circuit"
	"epoc/internal/gate"
	"epoc/internal/linalg"
)

// equivalentUpToLayout checks that the routed circuit equals the
// original after undoing the final layout permutation with SWAPs.
func equivalentUpToLayout(t *testing.T, orig *circuit.Circuit, res *Result, topoN int) {
	t.Helper()
	fixed := res.Circuit.Clone()
	// Restore: move logical l from FinalLayout[l] back to InitialLayout[l].
	pos := make([]int, topoN) // pos[physical] = logical currently there
	for i := range pos {
		pos[i] = -1
	}
	for l, p := range res.FinalLayout {
		pos[p] = l
	}
	for l := 0; l < len(res.FinalLayout); l++ {
		want := res.InitialLayout[l]
		cur := res.FinalLayout[l]
		// Find where logical l currently is (may have moved by fixups).
		cur = -1
		for p, lg := range pos {
			if lg == l {
				cur = p
			}
		}
		if cur == want {
			continue
		}
		fixed.Append(gate.New(gate.SWAP), cur, want)
		pos[cur], pos[want] = pos[want], pos[cur]
	}
	// Embed the original onto topoN qubits (identity elsewhere).
	big := circuit.New(topoN)
	for _, op := range orig.Ops {
		big.AppendOp(op)
	}
	if d := linalg.PhaseDistance(big.Unitary(), fixed.Unitary()); d > 1e-7 {
		t.Fatalf("routing changed the unitary (distance %v)", d)
	}
}

func TestTopologyBasics(t *testing.T) {
	lin := Linear(5)
	if !lin.Adjacent(1, 2) || lin.Adjacent(0, 2) {
		t.Fatal("linear adjacency wrong")
	}
	if lin.Distance(0, 4) != 4 {
		t.Fatalf("distance = %d", lin.Distance(0, 4))
	}
	g := Grid(2, 3)
	if g.N != 6 || !g.Adjacent(0, 3) || !g.Adjacent(0, 1) || g.Adjacent(0, 4) {
		t.Fatal("grid adjacency wrong")
	}
	if g.Distance(0, 5) != 3 {
		t.Fatalf("grid distance = %d", g.Distance(0, 5))
	}
}

func TestTopologyInvalidEdgePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTopology(2, [][2]int{{0, 5}})
}

func TestRouteAdjacentGatesUntouched(t *testing.T) {
	c := circuit.New(3)
	c.Append(gate.New(gate.H), 0)
	c.Append(gate.New(gate.CX), 0, 1)
	c.Append(gate.New(gate.CX), 1, 2)
	res, err := Route(c, Linear(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.SwapsAdded != 0 {
		t.Fatalf("adjacent circuit got %d swaps", res.SwapsAdded)
	}
	if err := Validate(res.Circuit, Linear(3)); err != nil {
		t.Fatal(err)
	}
}

func TestRouteDistantGate(t *testing.T) {
	c := circuit.New(4)
	c.Append(gate.New(gate.CX), 0, 3)
	topo := Linear(4)
	res, err := Route(c, topo)
	if err != nil {
		t.Fatal(err)
	}
	if res.SwapsAdded == 0 {
		t.Fatal("distant gate needs swaps")
	}
	if err := Validate(res.Circuit, topo); err != nil {
		t.Fatal(err)
	}
	equivalentUpToLayout(t, c, res, 4)
}

func TestRouteRandomCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(2)
		c := randomTwoQubitCircuit(n, 15, rng)
		topo := Linear(n)
		res, err := Route(c, topo)
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate(res.Circuit, topo); err != nil {
			t.Fatal(err)
		}
		equivalentUpToLayout(t, c, res, n)
	}
}

func TestRouteOnGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := randomTwoQubitCircuit(4, 12, rng)
	topo := Grid(2, 2)
	res, err := Route(c, topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(res.Circuit, topo); err != nil {
		t.Fatal(err)
	}
	equivalentUpToLayout(t, c, res, 4)
}

func TestRouteRejectsWideGates(t *testing.T) {
	c := circuit.New(3)
	c.Append(gate.New(gate.CCX), 0, 1, 2)
	if _, err := Route(c, Linear(3)); err == nil {
		t.Fatal("expected error for 3-qubit gate")
	}
}

func TestRouteTooSmallTopology(t *testing.T) {
	c := circuit.New(5)
	c.Append(gate.New(gate.H), 4)
	if _, err := Route(c, Linear(3)); err == nil {
		t.Fatal("expected error for small topology")
	}
}

func TestValidateCatchesNonCoupler(t *testing.T) {
	c := circuit.New(3)
	c.Append(gate.New(gate.CX), 0, 2)
	if err := Validate(c, Linear(3)); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestRouteDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	c := randomTwoQubitCircuit(5, 20, rng)
	r1, err := Route(c, Linear(5))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Route(c, Linear(5))
	if err != nil {
		t.Fatal(err)
	}
	if r1.SwapsAdded != r2.SwapsAdded || r1.Circuit.Len() != r2.Circuit.Len() {
		t.Fatal("routing not deterministic")
	}
}

func TestQuickRoutePreservesUnitary(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(2)
		c := randomTwoQubitCircuit(n, 10, rng)
		topo := Linear(n)
		res, err := Route(c, topo)
		if err != nil {
			return false
		}
		if Validate(res.Circuit, topo) != nil {
			return false
		}
		// Verify with the permutation undone.
		fixed := res.Circuit.Clone()
		pos := make([]int, n)
		for l, p := range res.FinalLayout {
			pos[p] = l
		}
		for l := 0; l < n; l++ {
			cur := -1
			for p, lg := range pos {
				if lg == l {
					cur = p
				}
			}
			if cur == l {
				continue
			}
			fixed.Append(gate.New(gate.SWAP), cur, l)
			pos[cur], pos[l] = pos[l], pos[cur]
		}
		return linalg.PhaseDistance(c.Unitary(), fixed.Unitary()) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func randomTwoQubitCircuit(n, ops int, rng *rand.Rand) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < ops; i++ {
		switch rng.Intn(3) {
		case 0:
			c.Append(gate.New(gate.RZ, rng.Float64()*2*math.Pi), rng.Intn(n))
		case 1:
			c.Append(gate.New(gate.H), rng.Intn(n))
		default:
			a := rng.Intn(n)
			b := rng.Intn(n)
			for b == a {
				b = rng.Intn(n)
			}
			c.Append(gate.New(gate.CX), a, b)
		}
	}
	return c
}
