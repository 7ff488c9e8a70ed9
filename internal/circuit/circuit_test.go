package circuit

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"epoc/internal/gate"
	"epoc/internal/linalg"
)

const tol = 1e-9

func bell() *Circuit {
	c := New(2)
	c.Append(gate.New(gate.H), 0)
	c.Append(gate.New(gate.CX), 0, 1)
	return c
}

func TestAppendAndLen(t *testing.T) {
	c := bell()
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	if c.CountKind(gate.H) != 1 || c.CountKind(gate.CX) != 1 {
		t.Fatal("CountKind wrong")
	}
	if c.TwoQubitCount() != 1 {
		t.Fatal("TwoQubitCount wrong")
	}
}

func TestAppendOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Append(gate.New(gate.CX), 0, 1)
}

func TestNewOpValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewOp(gate.New(gate.CX), 0) },    // wrong arity
		func() { NewOp(gate.New(gate.CX), 0, 0) }, // duplicate qubit
		func() { NewOp(gate.New(gate.X), -1) },    // negative
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestDepthSerialVsParallel(t *testing.T) {
	c := New(2)
	c.Append(gate.New(gate.X), 0)
	c.Append(gate.New(gate.X), 1)
	if c.Depth() != 1 {
		t.Fatalf("parallel X depth = %d", c.Depth())
	}
	c.Append(gate.New(gate.CX), 0, 1)
	if c.Depth() != 2 {
		t.Fatalf("depth after CX = %d", c.Depth())
	}
	c.Append(gate.New(gate.X), 0)
	if c.Depth() != 3 {
		t.Fatalf("depth after X = %d", c.Depth())
	}
}

func TestCriticalPathWeights(t *testing.T) {
	c := New(2)
	c.Append(gate.New(gate.X), 0)     // 10
	c.Append(gate.New(gate.X), 1)     // 10 (parallel)
	c.Append(gate.New(gate.CX), 0, 1) // 100
	w := func(op Op) float64 {
		if len(op.Qubits) == 2 {
			return 100
		}
		return 10
	}
	if got := c.CriticalPath(w); math.Abs(got-110) > tol {
		t.Fatalf("critical path = %v, want 110", got)
	}
}

func TestBellUnitary(t *testing.T) {
	u := bell().Unitary()
	// Bell circuit maps |00> to (|00> + |11>)/√2.
	v := u.MulVec([]complex128{1, 0, 0, 0})
	inv := 1 / math.Sqrt2
	if math.Abs(real(v[0])-inv) > tol || math.Abs(real(v[3])-inv) > tol {
		t.Fatalf("Bell state: %v", v)
	}
	if !u.IsUnitary(tol) {
		t.Fatal("circuit unitary is not unitary")
	}
}

func TestGHZUnitary(t *testing.T) {
	c := New(3)
	c.Append(gate.New(gate.H), 0)
	c.Append(gate.New(gate.CX), 0, 1)
	c.Append(gate.New(gate.CX), 1, 2)
	v := c.Unitary().MulVec([]complex128{1, 0, 0, 0, 0, 0, 0, 0})
	inv := 1 / math.Sqrt2
	if math.Abs(real(v[0])-inv) > tol || math.Abs(real(v[7])-inv) > tol {
		t.Fatalf("GHZ state: %v", v)
	}
}

func TestUnitaryOrdering(t *testing.T) {
	// X then Z on one qubit: U = Z·X (later ops multiply on the left).
	c := New(1)
	c.Append(gate.New(gate.X), 0)
	c.Append(gate.New(gate.Z), 0)
	want := gate.New(gate.Z).Matrix().Mul(gate.New(gate.X).Matrix())
	if !c.Unitary().Equal(want, tol) {
		t.Fatal("op ordering in Unitary is wrong")
	}
}

func TestInverseComposesToIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := randomCircuit(3, 20, rng)
	inv := c.Inverse()
	u := c.Unitary().Mul(inv.Unitary())
	// c.Unitary()·inv.Unitary() applies inverse first then c — either
	// order must give the identity.
	if !u.Equal(linalg.Identity(8), 1e-8) {
		t.Fatal("C·C⁻¹ != I")
	}
}

func TestCloneIndependence(t *testing.T) {
	c := bell()
	d := c.Clone()
	d.Append(gate.New(gate.X), 0)
	if c.Len() == d.Len() {
		t.Fatal("Clone shares op slice")
	}
	d.Ops[0].Qubits[0] = 1
	if c.Ops[0].Qubits[0] != 0 {
		t.Fatal("Clone shares qubit slices")
	}
}

func TestString(t *testing.T) {
	c := bell()
	if len(c.String()) == 0 || len(c.Ops[0].String()) == 0 {
		t.Fatal("empty String()")
	}
}

func TestQuickDepthNeverExceedsLen(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(4, 30, rng)
		unit := c.CriticalPath(func(Op) float64 { return 1 })
		return c.Depth() <= c.Len() && float64(c.Depth()) == unit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUnitaryAlwaysUnitary(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(3, 15, rng)
		return c.Unitary().IsUnitary(1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickInverseDepthEqual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(4, 25, rng)
		return c.Inverse().Depth() == c.Depth()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// randomCircuit builds a random circuit from a small gate set.
func randomCircuit(n, ops int, rng *rand.Rand) *Circuit {
	c := New(n)
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
