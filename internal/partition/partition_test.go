package partition

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"epoc/internal/circuit"
	"epoc/internal/gate"
	"epoc/internal/linalg"
)

func TestGroupQubitsCoversAll(t *testing.T) {
	c := ladder(6, 3)
	groups := GroupQubits(c, 3)
	seen := map[int]bool{}
	for _, g := range groups {
		if len(g) > 3 {
			t.Fatalf("group too big: %v", g)
		}
		for _, q := range g {
			if seen[q] {
				t.Fatalf("qubit %d in two groups", q)
			}
			seen[q] = true
		}
	}
	if len(seen) != 6 {
		t.Fatalf("groups cover %d of 6 qubits", len(seen))
	}
}

func TestGroupQubitsPrefersStrongInteraction(t *testing.T) {
	// Qubits 0-1 interact heavily, 0-2 once: group of 2 should pick {0,1}.
	c := circuit.New(3)
	for i := 0; i < 5; i++ {
		c.Append(gate.New(gate.CX), 0, 1)
	}
	c.Append(gate.New(gate.CX), 0, 2)
	groups := GroupQubits(c, 2)
	if len(groups[0]) != 2 || groups[0][0] != 0 || groups[0][1] != 1 {
		t.Fatalf("first group = %v", groups[0])
	}
}

func TestPartitionValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(4)
		c := randomCircuit(n, 40, rng)
		blocks := Partition(c, Options{MaxQubits: 2 + rng.Intn(2), MaxGates: 4 + rng.Intn(8)})
		if err := Validate(c, blocks); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestPartitionRespectsLimits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := randomCircuit(6, 60, rng)
	blocks := Partition(c, Options{MaxQubits: 2, MaxGates: 5})
	for _, b := range blocks {
		if b.Bridge {
			continue
		}
		if len(b.Qubits) > 2 {
			t.Fatalf("block qubits %v exceed limit", b.Qubits)
		}
		if b.Local.Len() > 5 {
			t.Fatalf("block has %d gates", b.Local.Len())
		}
	}
}

func TestBlockCircuitPreservesUnitary(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(2)
		c := randomCircuit(n, 25, rng)
		blocks := Partition(c, Options{MaxQubits: 2, MaxGates: 6})
		bc := ToBlockCircuit(n, blocks)
		if d := linalg.PhaseDistance(c.Unitary(), bc.Unitary()); d > 1e-7 {
			t.Fatalf("trial %d: block circuit differs (distance %v)", trial, d)
		}
		if bc.Len() >= c.Len() && c.Len() > 4 {
			t.Fatalf("blocking did not compress op count: %d -> %d", c.Len(), bc.Len())
		}
	}
}

func TestBridgeOpsPreserved(t *testing.T) {
	// Two tightly-coupled pairs with one bridge between them.
	c := circuit.New(4)
	c.Append(gate.New(gate.CX), 0, 1)
	c.Append(gate.New(gate.CX), 2, 3)
	c.Append(gate.New(gate.CX), 1, 2) // bridge
	c.Append(gate.New(gate.CX), 0, 1)
	blocks := Partition(c, Options{MaxQubits: 2, MaxGates: 10})
	bridges := 0
	for _, b := range blocks {
		if b.Bridge {
			bridges++
			if b.Local.Len() != 1 {
				t.Fatal("bridge block should hold one op")
			}
		}
	}
	if bridges != 1 {
		t.Fatalf("expected 1 bridge block, got %d", bridges)
	}
	if err := Validate(c, blocks); err != nil {
		t.Fatal(err)
	}
}

func TestBlockUnitaryMatchesLocalCircuit(t *testing.T) {
	c := circuit.New(2)
	c.Append(gate.New(gate.H), 0)
	c.Append(gate.New(gate.CX), 0, 1)
	blocks := Partition(c, Options{MaxQubits: 2, MaxGates: 10})
	if len(blocks) != 1 {
		t.Fatalf("expected one block, got %d", len(blocks))
	}
	u := blocks[0].Unitary()
	if !u.IsUnitary(1e-9) {
		t.Fatal("block unitary not unitary")
	}
	if d := linalg.PhaseDistance(u, c.Unitary()); d > 1e-9 {
		t.Fatal("block unitary differs from circuit unitary")
	}
}

func TestEmptyCircuit(t *testing.T) {
	blocks := Partition(circuit.New(4), Options{})
	if len(blocks) != 0 {
		t.Fatalf("empty circuit produced %d blocks", len(blocks))
	}
}

func TestSingleQubitCircuit(t *testing.T) {
	c := circuit.New(1)
	c.Append(gate.New(gate.H), 0)
	c.Append(gate.New(gate.T), 0)
	blocks := Partition(c, Options{MaxQubits: 3, MaxGates: 10})
	if len(blocks) != 1 || len(blocks[0].Qubits) != 1 {
		t.Fatalf("blocks: %+v", blocks)
	}
}

func TestQuickPartitionPreservesUnitary(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(4, 20, rng)
		opts := Options{MaxQubits: 2 + rng.Intn(2), MaxGates: 3 + rng.Intn(6)}
		blocks := Partition(c, opts)
		if Validate(c, blocks) != nil {
			return false
		}
		bc := ToBlockCircuit(4, blocks)
		return linalg.PhaseDistance(c.Unitary(), bc.Unitary()) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func ladder(n, reps int) *circuit.Circuit {
	c := circuit.New(n)
	for r := 0; r < reps; r++ {
		for q := 0; q < n-1; q++ {
			c.Append(gate.New(gate.CX), q, q+1)
		}
	}
	return c
}

func randomCircuit(n, ops int, rng *rand.Rand) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < ops; i++ {
		switch rng.Intn(4) {
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
