package optimize

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"epoc/internal/circuit"
	"epoc/internal/gate"
	"epoc/internal/linalg"
)

// equivalent checks unitary equality up to global phase.
func equivalent(t *testing.T, a, b *circuit.Circuit, context string) {
	t.Helper()
	if d := linalg.PhaseDistance(a.Unitary(), b.Unitary()); d > 1e-7 {
		t.Fatalf("%s: circuits differ (phase distance %v)", context, d)
	}
}

func TestDecomposeEveryRegistryGate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for kind, spec := range gate.Registry {
		params := make([]float64, spec.Params)
		for i := range params {
			params[i] = rng.Float64()*3 - 1.5
		}
		c := circuit.New(spec.Qubits)
		qs := make([]int, spec.Qubits)
		for i := range qs {
			qs[i] = i
		}
		c.Append(gate.New(kind, params...), qs...)
		d := DecomposeToBasis(c)
		for _, op := range d.Ops {
			switch op.G.Kind {
			case gate.RZ, gate.RX, gate.H, gate.CX, gate.CZ:
			default:
				t.Fatalf("%s: decomposition contains non-basis gate %s", kind, op.G.Kind)
			}
		}
		equivalent(t, c, d, string(kind))
	}
}

func TestDecomposeGateOperandOrderings(t *testing.T) {
	// Multi-qubit gates with permuted operands must stay correct.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 5; trial++ {
		c := circuit.New(3)
		c.Append(gate.New(gate.CCX), 2, 0, 1)
		c.Append(gate.New(gate.CSWP), 1, 2, 0)
		c.Append(gate.New(gate.CRZ, rng.Float64()), 2, 1)
		c.Append(gate.New(gate.CH), 1, 0)
		equivalent(t, c, DecomposeToBasis(c), "permuted operands")
	}
}

func TestDecomposeRejectsBlocks(t *testing.T) {
	c := circuit.New(1)
	c.Append(gate.NewUnitary(linalg.Identity(2)), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on block gate")
		}
	}()
	DecomposeToBasis(c)
}

func TestZYZRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		u := linalg.RandomUnitary(2, rng)
		alpha, beta, gamma, delta := ZYZ(u)
		rec := gate.New(gate.RZ, beta).Matrix().
			Mul(gate.New(gate.RY, gamma).Matrix()).
			Mul(gate.New(gate.RZ, delta).Matrix()).
			Scale(complexExp(alpha))
		if linalg.FrobeniusDistance(u, rec) > 1e-8 {
			t.Fatalf("ZYZ reconstruction failed (trial %d): dist=%v", trial, linalg.FrobeniusDistance(u, rec))
		}
	}
}

func TestZYZDiagonalAndAntiDiagonal(t *testing.T) {
	for _, u := range []*linalg.Matrix{
		gate.New(gate.Z).Matrix(),
		gate.New(gate.X).Matrix(),
		gate.New(gate.S).Matrix(),
		linalg.Identity(2),
	} {
		alpha, beta, gamma, delta := ZYZ(u)
		rec := gate.New(gate.RZ, beta).Matrix().
			Mul(gate.New(gate.RY, gamma).Matrix()).
			Mul(gate.New(gate.RZ, delta).Matrix()).
			Scale(complexExp(alpha))
		if linalg.FrobeniusDistance(u, rec) > 1e-9 {
			t.Fatalf("ZYZ failed on special matrix:\n%v", u)
		}
	}
}

func TestPeepholeCancelsInversePairs(t *testing.T) {
	c := circuit.New(2)
	c.Append(gate.New(gate.H), 0)
	c.Append(gate.New(gate.H), 0)
	c.Append(gate.New(gate.CX), 0, 1)
	c.Append(gate.New(gate.CX), 0, 1)
	out := Peephole(c)
	if out.Len() != 0 {
		t.Fatalf("expected empty circuit, got %d ops:\n%s", out.Len(), out)
	}
}

func TestPeepholeMergesRotations(t *testing.T) {
	c := circuit.New(1)
	c.Append(gate.New(gate.RZ, 0.3), 0)
	c.Append(gate.New(gate.RZ, 0.4), 0)
	out := Peephole(c)
	if out.Len() != 1 || math.Abs(out.Ops[0].G.Params[0]-0.7) > 1e-12 {
		t.Fatalf("rotation merge failed: %s", out)
	}
	// Opposite rotations cancel entirely.
	c2 := circuit.New(1)
	c2.Append(gate.New(gate.RX, 0.9), 0)
	c2.Append(gate.New(gate.RX, -0.9), 0)
	if Peephole(c2).Len() != 0 {
		t.Fatal("opposite rotations should cancel")
	}
}

// TestPeepholeControlledRotationPeriod: a controlled rotation has
// period 4π (CR(θ+2π) = CR(θ)·Z on the control), so a merged pair must
// keep its unitary, and a pair cancels only when its angles sum to a
// multiple of 4π.
func TestPeepholeControlledRotationPeriod(t *testing.T) {
	for _, kind := range []gate.Kind{gate.CRX, gate.CRY, gate.CRZ} {
		for _, pair := range [][2]float64{
			{3, 3}, {math.Pi, math.Pi}, {-3, -3.5}, {5, 6}, {1.2, 0.4},
			{2 * math.Pi, 2 * math.Pi}, {7, 4*math.Pi - 7}, {-1, 1},
		} {
			c := circuit.New(2)
			c.Append(gate.New(kind, pair[0]), 0, 1)
			c.Append(gate.New(kind, pair[1]), 0, 1)
			out := Peephole(c)
			context := fmt.Sprintf("%s(%g)·%s(%g) → %s", kind, pair[0], kind, pair[1], out)
			equivalent(t, c, out, context)
			if out.Len() > 1 {
				t.Fatalf("%s: the pair did not merge", context)
			}
			if out.Len() == 1 {
				if a := out.Ops[0].G.Params[0]; a <= -2*math.Pi || a > 2*math.Pi {
					t.Fatalf("%s: merged angle %g outside (−2π, 2π]", context, a)
				}
			}
		}
	}
}

func TestPeepholeCommutesThroughCX(t *testing.T) {
	// RZ on control commutes through CX; the two RZs merge.
	c := circuit.New(2)
	c.Append(gate.New(gate.RZ, 0.3), 0)
	c.Append(gate.New(gate.CX), 0, 1)
	c.Append(gate.New(gate.RZ, -0.3), 0)
	out := Peephole(c)
	if out.Len() != 1 || out.Ops[0].G.Kind != gate.CX {
		t.Fatalf("commute-merge through CX failed: %s", out)
	}
	equivalent(t, c, out, "commute through CX")

	// X on target commutes through CX.
	c2 := circuit.New(2)
	c2.Append(gate.New(gate.X), 1)
	c2.Append(gate.New(gate.CX), 0, 1)
	c2.Append(gate.New(gate.X), 1)
	out2 := Peephole(c2)
	if out2.Len() != 1 {
		t.Fatalf("X through CX target failed: %s", out2)
	}
	equivalent(t, c2, out2, "X through CX")

	// RZ on *target* must NOT commute through CX.
	c3 := circuit.New(2)
	c3.Append(gate.New(gate.RZ, 0.5), 1)
	c3.Append(gate.New(gate.CX), 0, 1)
	c3.Append(gate.New(gate.RZ, -0.5), 1)
	out3 := Peephole(c3)
	equivalent(t, c3, out3, "non-commuting preserved")
	if out3.Len() != 3 {
		t.Fatalf("RZ moved through CX target: %s", out3)
	}
}

func TestPeepholeSymmetricGates(t *testing.T) {
	c := circuit.New(2)
	c.Append(gate.New(gate.CZ), 0, 1)
	c.Append(gate.New(gate.CZ), 1, 0)
	if Peephole(c).Len() != 0 {
		t.Fatal("CZ with reversed operands should cancel")
	}
	c2 := circuit.New(2)
	c2.Append(gate.New(gate.SWAP), 0, 1)
	c2.Append(gate.New(gate.SWAP), 1, 0)
	if Peephole(c2).Len() != 0 {
		t.Fatal("SWAP with reversed operands should cancel")
	}
}

func TestPeepholeSTFusion(t *testing.T) {
	c := circuit.New(1)
	c.Append(gate.New(gate.T), 0)
	c.Append(gate.New(gate.T), 0)
	c.Append(gate.New(gate.S), 0) // T·T = S, then S·S = Z
	out := Peephole(c)
	if out.Len() != 1 || out.Ops[0].G.Kind != gate.Z {
		t.Fatalf("T·T·S should fuse to Z: %s", out)
	}
	equivalent(t, c, out, "phase fusion")
}

func TestHConjugation(t *testing.T) {
	c := circuit.New(1)
	c.Append(gate.New(gate.H), 0)
	c.Append(gate.New(gate.RZ, 0.8), 0)
	c.Append(gate.New(gate.H), 0)
	out := Peephole(c)
	if out.Len() != 1 || out.Ops[0].G.Kind != gate.RX {
		t.Fatalf("H·RZ·H should become RX: %s", out)
	}
	equivalent(t, c, out, "H conjugation")
}

func TestMergeSingleQubitRuns(t *testing.T) {
	c := circuit.New(2)
	c.Append(gate.New(gate.H), 0)
	c.Append(gate.New(gate.T), 0)
	c.Append(gate.New(gate.S), 0)
	c.Append(gate.New(gate.CX), 0, 1)
	c.Append(gate.New(gate.RX, 0.4), 1)
	c.Append(gate.New(gate.RZ, 0.2), 1)
	out := MergeSingleQubitRuns(c)
	// Run of 3 on q0 becomes one U3; run of 2 on q1 becomes one U3.
	if out.Len() != 3 {
		t.Fatalf("expected 3 ops after merging, got %d:\n%s", out.Len(), out)
	}
	equivalent(t, c, out, "single-qubit run merge")
}

func TestMergeRunsDropsIdentity(t *testing.T) {
	c := circuit.New(1)
	c.Append(gate.New(gate.H), 0)
	c.Append(gate.New(gate.H), 0)
	out := MergeSingleQubitRuns(c)
	if out.Len() != 0 {
		t.Fatalf("HH run should vanish: %s", out)
	}
}

func TestPeepholeReducesRandomCliffordT(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var reduced int
	for trial := 0; trial < 10; trial++ {
		c := randomCliffordT(4, 40, rng)
		out := Peephole(c)
		equivalent(t, c, out, "random Clifford+T")
		if out.Len() < c.Len() {
			reduced++
		}
	}
	if reduced == 0 {
		t.Fatal("peephole never reduced any random circuit")
	}
}

func TestQuickPeepholePreservesUnitary(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCliffordT(3, 30, rng)
		out := Peephole(c)
		return linalg.PhaseDistance(c.Unitary(), out.Unitary()) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDecomposePreservesUnitary(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomMixed(3, 15, rng)
		d := DecomposeToBasis(c)
		return linalg.PhaseDistance(c.Unitary(), d.Unitary()) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMergeRunsPreservesUnitary(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomMixed(3, 20, rng)
		out := MergeSingleQubitRuns(c)
		return linalg.PhaseDistance(c.Unitary(), out.Unitary()) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func complexExp(theta float64) complex128 {
	return complex(math.Cos(theta), math.Sin(theta))
}

func randomCliffordT(n, ops int, rng *rand.Rand) *circuit.Circuit {
	c := circuit.New(n)
	kinds := []gate.Kind{gate.H, gate.S, gate.T, gate.X, gate.Z, gate.Sdg, gate.Tdg}
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

func randomMixed(n, ops int, rng *rand.Rand) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < ops; i++ {
		switch rng.Intn(6) {
		case 0:
			c.Append(gate.New(gate.H), rng.Intn(n))
		case 1:
			c.Append(gate.New(gate.U3, rng.Float64()*3, rng.Float64()*3, rng.Float64()*3), rng.Intn(n))
		case 2:
			c.Append(gate.New(gate.RY, rng.Float64()*3), rng.Intn(n))
		case 3:
			c.Append(gate.New(gate.RZ, rng.Float64()*3), rng.Intn(n))
		default:
			a := rng.Intn(n)
			b := (a + 1 + rng.Intn(n-1)) % n
			c.Append(gate.New(gate.CX), a, b)
		}
	}
	return c
}
