package linalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRandomUnitaryIsUnitary(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 4, 8} {
		u := RandomUnitary(n, rng)
		if !u.IsUnitary(1e-9) {
			t.Fatalf("RandomUnitary(%d) not unitary", n)
		}
	}
}

func TestRandomHermitianIsHermitian(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	h := RandomHermitian(5, rng)
	if !h.IsHermitian(0) {
		t.Fatal("RandomHermitian not Hermitian")
	}
}

func TestHSInner(t *testing.T) {
	id := Identity(2)
	if HSInner(id, id) != 2 {
		t.Fatalf("tr(I†I) = %v", HSInner(id, id))
	}
}

func TestPhaseDistanceInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	u := RandomUnitary(4, rng)
	ph := cmplx.Exp(complex(0, 1.234))
	if d := PhaseDistance(u, u.Scale(ph)); d > 1e-9 {
		t.Fatalf("phase distance to phased copy = %v", d)
	}
	v := RandomUnitary(4, rng)
	if d := PhaseDistance(u, v); d < 0.01 {
		t.Fatalf("independent unitaries too close: %v", d)
	}
}

func TestCanonicalPhaseStable(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	u := RandomUnitary(4, rng)
	for _, phi := range []float64{0.1, 1.5, -2.7, math.Pi} {
		c1 := CanonicalPhase(u)
		c2 := CanonicalPhase(u.Scale(cmplx.Exp(complex(0, phi))))
		if !c1.Equal(c2, 1e-9) {
			t.Fatalf("canonical phase differs for phi=%v", phi)
		}
	}
}

func TestFingerprintMatchesUpToGlobalPhase(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	u := RandomUnitary(4, rng)
	fp1 := Fingerprint(u)
	fp2 := Fingerprint(u.Scale(cmplx.Exp(complex(0, 0.77))))
	if fp1 != fp2 {
		t.Fatal("fingerprints of phase-equal unitaries differ")
	}
	v := RandomUnitary(4, rng)
	if Fingerprint(v) == fp1 {
		t.Fatal("fingerprints of independent unitaries collide")
	}
}

func TestFingerprintZeroMatrix(t *testing.T) {
	if Fingerprint(NewMatrix(2, 2)) != Fingerprint(NewMatrix(2, 2)) {
		t.Fatal("zero matrix fingerprint not deterministic")
	}
}

func TestEmbedOperatorSingleQubit(t *testing.T) {
	x := FromRows([][]complex128{{0, 1}, {1, 0}})
	// X on qubit 0 of 2 qubits = I ⊗ X in (q1 ⊗ q0) ordering.
	got := EmbedOperator(x, []int{0}, 2)
	want := Identity(2).Kron(x)
	if !got.Equal(want, tol) {
		t.Fatalf("embed X on q0:\n%v\nwant\n%v", got, want)
	}
	// X on qubit 1 = X ⊗ I.
	got = EmbedOperator(x, []int{1}, 2)
	want = x.Kron(Identity(2))
	if !got.Equal(want, tol) {
		t.Fatalf("embed X on q1:\n%v", got)
	}
}

func TestEmbedOperatorTwoQubitOrdering(t *testing.T) {
	// CNOT with control = op qubit 1, target = op qubit 0 in
	// little-endian convention: |c t> → |c, t⊕c> with index = 2c + t.
	cnot := FromRows([][]complex128{
		{1, 0, 0, 0},
		{0, 1, 0, 0},
		{0, 0, 0, 1},
		{0, 0, 1, 0},
	})
	// Embed on targets {0,1} of a 2-qubit system: identical matrix.
	got := EmbedOperator(cnot, []int{0, 1}, 2)
	if !got.Equal(cnot, tol) {
		t.Fatalf("identity embedding changed the matrix:\n%v", got)
	}
	// Embed reversed {1,0}: swaps the roles of control and target.
	got = EmbedOperator(cnot, []int{1, 0}, 2)
	want := FromRows([][]complex128{
		{1, 0, 0, 0},
		{0, 0, 0, 1},
		{0, 0, 1, 0},
		{0, 1, 0, 0},
	})
	if !got.Equal(want, tol) {
		t.Fatalf("reversed embedding:\n%v\nwant\n%v", got, want)
	}
}

func TestEmbedOperatorThreeQubits(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	u := RandomUnitary(2, rng)
	// Embedding a 1q op on qubit 1 of 3: I ⊗ U ⊗ I (q2 ⊗ q1 ⊗ q0).
	got := EmbedOperator(u, []int{1}, 3)
	want := Identity(2).Kron(u).Kron(Identity(2))
	if !got.Equal(want, 1e-10) {
		t.Fatal("3-qubit embedding mismatch")
	}
}

func TestEmbedOperatorValidation(t *testing.T) {
	x := FromRows([][]complex128{{0, 1}, {1, 0}})
	for _, bad := range [][]int{{-1}, {3}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for targets %v", bad)
				}
			}()
			EmbedOperator(x, bad, 3)
		}()
	}
}

func TestQuickEmbedPreservesUnitarity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		u := RandomUnitary(4, rng)
		q0 := rng.Intn(3)
		q1 := (q0 + 1 + rng.Intn(2)) % 3
		e := EmbedOperator(u, []int{q0, q1}, 3)
		return e.IsUnitary(1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEmbedComposition(t *testing.T) {
	// Embedding commutes with multiplication for ops on the same targets.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := RandomUnitary(4, rng)
		b := RandomUnitary(4, rng)
		targets := []int{2, 0}
		lhs := EmbedOperator(a.Mul(b), targets, 3)
		rhs := EmbedOperator(a, targets, 3).Mul(EmbedOperator(b, targets, 3))
		return lhs.Equal(rhs, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
