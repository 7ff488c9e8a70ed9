package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"epoc/internal/circuit"
	"epoc/internal/gate"
	"epoc/internal/linalg"
)

const tol = 1e-9

func TestNewStateIsZeroKet(t *testing.T) {
	s := NewState(3)
	if s.Amp[0] != 1 {
		t.Fatal("|000> amplitude not 1")
	}
	if math.Abs(s.Norm()-1) > tol {
		t.Fatal("not normalized")
	}
}

func TestApplyXFlipsBit(t *testing.T) {
	s := NewState(2)
	s.ApplyMatrix(gate.New(gate.X).Matrix(), []int{1})
	if s.Amp[2] != 1 { // |q1=1,q0=0> = index 2
		t.Fatalf("X on q1: %v", s.Amp)
	}
}

func TestBellState(t *testing.T) {
	c := circuit.New(2)
	c.Append(gate.New(gate.H), 0)
	c.Append(gate.New(gate.CX), 0, 1)
	s := RunCircuit(c)
	inv := 1 / math.Sqrt2
	if math.Abs(real(s.Amp[0])-inv) > tol || math.Abs(real(s.Amp[3])-inv) > tol {
		t.Fatalf("Bell: %v", s.Amp)
	}
	if math.Abs(s.Probability(0)-0.5) > tol || math.Abs(s.Probability(3)-0.5) > tol {
		t.Fatal("Bell probabilities wrong")
	}
}

func TestGHZOnManyQubits(t *testing.T) {
	n := 10
	c := circuit.New(n)
	c.Append(gate.New(gate.H), 0)
	for i := 0; i < n-1; i++ {
		c.Append(gate.New(gate.CX), i, i+1)
	}
	s := RunCircuit(c)
	inv := 1 / math.Sqrt2
	if math.Abs(real(s.Amp[0])-inv) > tol || math.Abs(real(s.Amp[(1<<n)-1])-inv) > tol {
		t.Fatal("GHZ amplitudes wrong")
	}
	probs := s.Probabilities()
	var total float64
	for _, p := range probs {
		total += p
	}
	if math.Abs(total-1) > tol {
		t.Fatal("probabilities do not sum to 1")
	}
}

func TestSimMatchesUnitary(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		c := randomCircuit(4, 25, rng)
		// Full-matrix route.
		u := c.Unitary()
		v0 := make([]complex128, 16)
		v0[0] = 1
		want := u.MulVec(v0)
		// Simulator route.
		s := RunCircuit(c)
		for i := range want {
			d := want[i] - s.Amp[i]
			if math.Hypot(real(d), imag(d)) > 1e-8 {
				t.Fatalf("trial %d amp %d: %v vs %v", trial, i, want[i], s.Amp[i])
			}
		}
	}
}

func TestApplyMatrixMultiQubitOrdering(t *testing.T) {
	// Apply CX with control q2, target q0 on |100> — target should flip.
	s := NewState(3)
	s.ApplyMatrix(gate.New(gate.X).Matrix(), []int{2}) // now |100>
	s.ApplyMatrix(gate.New(gate.CX).Matrix(), []int{2, 0})
	if s.Amp[5] != 1 { // |101>
		t.Fatalf("controlled flip wrong: %v", s.Amp)
	}
}

func TestFromAmplitudes(t *testing.T) {
	s := FromAmplitudes([]complex128{0, 1, 0, 0})
	if s.N != 2 {
		t.Fatalf("N = %d", s.N)
	}
	for _, bad := range [][]complex128{{}, {1, 0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			FromAmplitudes(bad)
		}()
	}
}

func TestOverlapAndFidelity(t *testing.T) {
	a := NewState(1)
	b := NewState(1)
	if math.Abs(a.Fidelity(b)-1) > tol {
		t.Fatal("identical states should have fidelity 1")
	}
	b.ApplyMatrix(gate.New(gate.X).Matrix(), []int{0})
	if a.Fidelity(b) > tol {
		t.Fatal("orthogonal states should have fidelity 0")
	}
	b2 := NewState(1)
	b2.ApplyMatrix(gate.New(gate.H).Matrix(), []int{0})
	if math.Abs(a.Fidelity(b2)-0.5) > tol {
		t.Fatalf("H overlap = %v", a.Fidelity(b2))
	}
}

func TestCloneIndependence(t *testing.T) {
	a := NewState(1)
	b := a.Clone()
	b.ApplyMatrix(gate.New(gate.X).Matrix(), []int{0})
	if a.Amp[1] != 0 {
		t.Fatal("Clone shares amplitudes")
	}
}

func TestValidationPanics(t *testing.T) {
	s := NewState(2)
	x := gate.New(gate.X).Matrix()
	for _, fn := range []func(){
		func() { s.ApplyMatrix(x, []int{5}) },
		func() { s.ApplyMatrix(x, []int{0, 1}) },
		func() { s.Run(circuit.New(3)) },
		func() { NewState(-1) },
		func() { s.Overlap(NewState(3)) },
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

// equivalentCircuits reports whether two circuits implement the same
// unitary up to global phase, by running both on the seed states and
// comparing fidelities.
func equivalentCircuits(a, b *circuit.Circuit, trials int, seedStates []*State) bool {
	if a.NumQubits != b.NumQubits {
		return false
	}
	for i := 0; i < trials && i < len(seedStates); i++ {
		sa := seedStates[i].Clone()
		sb := seedStates[i].Clone()
		sa.Run(a)
		sb.Run(b)
		if sa.Fidelity(sb) < 1-1e-9 {
			return false
		}
	}
	return true
}

func TestEquivalentCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := circuit.New(2)
	a.Append(gate.New(gate.H), 0)
	a.Append(gate.New(gate.H), 0)
	b := circuit.New(2) // identity
	seeds := randomStates(2, 4, rng)
	if !equivalentCircuits(a, b, 4, seeds) {
		t.Fatal("HH should equal identity")
	}
	cx := circuit.New(2)
	cx.Append(gate.New(gate.CX), 0, 1)
	if equivalentCircuits(a, cx, 4, seeds) {
		t.Fatal("identity and CX compared equal")
	}
	if equivalentCircuits(a, circuit.New(3), 1, seeds) {
		t.Fatal("different qubit counts compared equal")
	}
}

func TestQuickNormPreserved(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(5, 30, rng)
		s := RunCircuit(c)
		return math.Abs(s.Norm()-1) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickInverseRestoresState(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(4, 20, rng)
		s := NewState(4)
		s.Run(c)
		s.Run(c.Inverse())
		return math.Abs(s.Probability(0)-1) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
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
			c.Append(gate.New(gate.RY, rng.Float64()*2*math.Pi), rng.Intn(n))
		default:
			a := rng.Intn(n)
			b := (a + 1 + rng.Intn(n-1)) % n
			c.Append(gate.New(gate.CX), a, b)
		}
	}
	return c
}

func randomStates(n, count int, rng *rand.Rand) []*State {
	out := make([]*State, count)
	for i := range out {
		s := NewState(n)
		for q := 0; q < n; q++ {
			u := linalg.RandomUnitary(2, rng)
			s.ApplyMatrix(u, []int{q})
		}
		out[i] = s
	}
	return out
}
