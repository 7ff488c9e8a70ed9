package synth

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"epoc/internal/circuit"
	"epoc/internal/gate"
	"epoc/internal/linalg"
)

func TestSynthesize1QRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		u := linalg.RandomUnitary(2, rng)
		c := Synthesize1Q(u)
		if c.Len() > 1 {
			t.Fatalf("1q synthesis emitted %d ops", c.Len())
		}
		if d := linalg.PhaseDistance(u, c.Unitary()); d > 1e-7 {
			t.Fatalf("1q synthesis distance %v", d)
		}
	}
}

func TestSynthesize1QIdentity(t *testing.T) {
	if c := Synthesize1Q(linalg.Identity(2)); c.Len() != 0 {
		t.Fatalf("identity produced %d ops", c.Len())
	}
	// Global phase only.
	if c := Synthesize1Q(linalg.Identity(2).Scale(complex(0, 1))); c.Len() != 0 {
		t.Fatalf("phased identity produced %d ops", c.Len())
	}
}

func TestQSearchProductState(t *testing.T) {
	// A ⊗ B needs zero CNOTs.
	rng := rand.New(rand.NewSource(2))
	u := linalg.RandomUnitary(2, rng).Kron(linalg.RandomUnitary(2, rng))
	res := QSearch(u, Options{Seed: 3})
	if res.Distance > 1e-7 {
		t.Fatalf("distance %v", res.Distance)
	}
	if got := res.Circuit.CountKind(gate.CX); got != 0 {
		t.Fatalf("product state used %d CNOTs", got)
	}
}

func TestQSearchCNOT(t *testing.T) {
	u := gate.New(gate.CX).Matrix()
	res := QSearch(u, Options{Seed: 5})
	if res.Distance > 1e-7 {
		t.Fatalf("distance %v", res.Distance)
	}
	if got := res.Circuit.CountKind(gate.CX); got != 1 {
		t.Fatalf("CNOT target used %d CNOTs", got)
	}
	if d := linalg.PhaseDistance(u, res.Circuit.Unitary()); d > 1e-5 {
		t.Fatalf("unitary distance %v", d)
	}
}

func TestQSearchCZ(t *testing.T) {
	u := gate.New(gate.CZ).Matrix()
	res := QSearch(u, Options{Seed: 7})
	if res.Distance > 1e-7 {
		t.Fatalf("distance %v", res.Distance)
	}
	if got := res.Circuit.CountKind(gate.CX); got != 1 {
		t.Fatalf("CZ used %d CNOTs, want 1", got)
	}
}

func TestQSearchRandomSU4(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 3; trial++ {
		u := linalg.RandomUnitary(4, rng)
		res := QSearch(u, Options{Seed: int64(100 + trial)})
		if res.Distance > 1e-7 {
			t.Fatalf("trial %d distance %v (cnots %d, nodes %d)", trial, res.Distance, res.CNOTs, res.Nodes)
		}
		if cx := res.Circuit.CountKind(gate.CX); cx > 3 {
			t.Fatalf("generic SU(4) used %d CNOTs, expected <= 3", cx)
		}
		if d := linalg.PhaseDistance(u, res.Circuit.Unitary()); d > 1e-4 {
			t.Fatalf("unitary distance %v", d)
		}
	}
}

func TestQSearchSWAPDepth(t *testing.T) {
	u := gate.New(gate.SWAP).Matrix()
	res := QSearch(u, Options{Seed: 13})
	if res.Distance > 1e-7 {
		t.Fatalf("distance %v", res.Distance)
	}
	if cx := res.Circuit.CountKind(gate.CX); cx != 3 {
		t.Fatalf("SWAP used %d CNOTs, want 3", cx)
	}
}

func TestSynthesizeBlockFallback(t *testing.T) {
	// A search too small to reach the threshold completes (nil error)
	// with ok = false and its best out-of-threshold circuit; the caller
	// falls back to the block's gate realization.
	rng := rand.New(rand.NewSource(17))
	u := linalg.RandomUnitary(4, rng)
	c, ok, err := SynthesizeOutcome(u, Options{MaxCNOTs: 1, MaxNodes: 3, OptBudget: 5, Seed: 19})
	if err != nil {
		t.Fatalf("SynthesizeOutcome error: %v", err)
	}
	if ok || c == nil {
		t.Fatalf("want a best-effort circuit with ok = false: ok=%v circ==nil %v", ok, c == nil)
	}
	if d := linalg.PhaseDistance(u, c.Unitary()); d < threshold {
		t.Fatalf("ok = false but the circuit is within threshold (distance %v)", d)
	}
}

func TestSynthesizeBlock1Q(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	u := linalg.RandomUnitary(2, rng)
	c, ok, err := SynthesizeOutcome(u, Options{})
	if err != nil {
		t.Fatalf("SynthesizeOutcome error: %v", err)
	}
	if !ok {
		t.Fatal("1q block synthesis must succeed")
	}
	if d := linalg.PhaseDistance(u, c.Unitary()); d > 1e-8 {
		t.Fatalf("unitary distance %v", d)
	}
}

func TestRegroupPreservesUnitary(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(2)
		c := randomVUGCircuit(n, 30, rng)
		g := Regroup(c, 2+rng.Intn(2))
		if d := linalg.PhaseDistance(c.Unitary(), g.Unitary()); d > 1e-7 {
			t.Fatalf("trial %d: regroup changed unitary (%v)", trial, d)
		}
	}
}

func TestRegroupRespectsQubitLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	c := randomVUGCircuit(5, 40, rng)
	for _, max := range []int{2, 3} {
		g := Regroup(c, max)
		for _, op := range g.Ops {
			if len(op.Qubits) > max {
				t.Fatalf("block on %v exceeds limit %d", op.Qubits, max)
			}
			if op.G.Kind != gate.Unitary {
				t.Fatalf("regroup emitted non-unitary op %s", op.G)
			}
		}
	}
}

func TestRegroupAggregates(t *testing.T) {
	// A long 2-qubit run should collapse into one block.
	c := circuit.New(2)
	for i := 0; i < 10; i++ {
		c.Append(gate.New(gate.U3, 0.1*float64(i), 0.2, 0.3), i%2)
		c.Append(gate.New(gate.CX), 0, 1)
	}
	g := Regroup(c, 2)
	if g.Len() != 1 {
		t.Fatalf("2q run became %d blocks, want 1", g.Len())
	}
}

func TestRegroupOrderSafetyRegression(t *testing.T) {
	// Crafted so a naive grouper absorbs qubit 3 into an early block even
	// though a later sealed block already holds earlier ops on qubit 3.
	c := circuit.New(6)
	c.Append(gate.New(gate.CX), 0, 1) // B1 {0,1}
	c.Append(gate.New(gate.CX), 3, 2) // B2 {2,3}
	c.Append(gate.New(gate.CX), 4, 2) // grows B2 {2,3,4}
	c.Append(gate.New(gate.CX), 2, 5) // overflows: seals B2, starts {2,5}
	c.Append(gate.New(gate.CX), 1, 3) // must NOT move before the 3,2 op
	g := Regroup(c, 3)
	if d := linalg.PhaseDistance(c.Unitary(), g.Unitary()); d > 1e-7 {
		t.Fatalf("order-safety violated: distance %v\n%s", d, g)
	}
}

func TestRegroupEmpty(t *testing.T) {
	if g := Regroup(circuit.New(3), 2); g.Len() != 0 {
		t.Fatal("empty regroup not empty")
	}
}

func TestQuickRegroupPreservesUnitary(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomVUGCircuit(4, 25, rng)
		g := Regroup(c, 2+rng.Intn(2))
		if linalg.PhaseDistance(c.Unitary(), g.Unitary()) > 1e-7 {
			return false
		}
		// Regrouping must never increase the op count.
		return g.Len() <= c.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickQSearch1QExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		u := linalg.RandomUnitary(2, rng)
		res := QSearch(u, Options{Seed: seed + 1})
		return linalg.PhaseDistance(u, res.Circuit.Unitary()) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// randomVUGCircuit builds circuits shaped like synthesis output:
// U3 VUGs and CNOTs.
func randomVUGCircuit(n, ops int, rng *rand.Rand) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < ops; i++ {
		if rng.Intn(2) == 0 {
			c.Append(gate.New(gate.U3, rng.Float64()*math.Pi, rng.Float64()*2*math.Pi, rng.Float64()*2*math.Pi), rng.Intn(n))
		} else {
			a := rng.Intn(n)
			b := (a + 1 + rng.Intn(n-1)) % n
			c.Append(gate.New(gate.CX), a, b)
		}
	}
	return c
}

// BenchmarkQSearch is one QSearch call on a Haar-random 2q unitary, a
// class that needs three CNOTs, with default options: the search and
// its random restarts, as stage 3 runs it per block class.
func BenchmarkQSearch(b *testing.B) {
	target := linalg.RandomUnitary(4, rand.New(rand.NewSource(31)))
	b.ReportAllocs()
	for b.Loop() {
		QSearch(target, Options{})
	}
}
