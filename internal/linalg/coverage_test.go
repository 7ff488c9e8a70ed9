package linalg

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestExpmPadeOrders drives every Padé order branch by scaling a fixed
// skew-Hermitian generator to norms in each theta band, comparing
// against the eigendecomposition exponential.
func TestExpmPadeOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := RandomHermitian(4, rng)
	h = h.Scale(complex(1/h.OneNorm(), 0)) // norm 1 generator
	for _, scale := range []float64{0.01, 0.1, 0.5, 1.5, 4.0, 20.0} {
		a := h.Scale(complex(0, scale))
		got := Expm(a)
		want := NewMatrix(4, 4)
		ExpIHermitianInto(nil, want, h, scale)
		if !got.Equal(want, 1e-8) {
			t.Fatalf("scale %v: Padé and eigen exponentials differ by %v (Frobenius)",
				scale, got.Sub(want).FrobeniusNorm())
		}
	}
}

func TestPanicsOnDimensionMismatch(t *testing.T) {
	a := Identity(2)
	for _, fn := range []func(){
		func() { a.MulVec([]complex128{1}) },
		func() { NewMatrix(-1, 2) },
		func() { NewMatrix(2, 3).Trace() },
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

func TestQRRequiresTall(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wide matrix")
		}
	}()
	QRDecompose(NewMatrix(2, 3))
}

func TestSolveSingularError(t *testing.T) {
	// A zero first column is singular at the first pivot (TestLUSingular
	// covers a singular trailing pivot).
	if _, err := luSolve(NewMatrix(2, 2), []complex128{1, 2}); err != ErrSingular {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
}

func TestCanonicalPhaseZeroMatrix(t *testing.T) {
	z := NewMatrix(2, 2)
	if got := CanonicalPhase(z); !got.Equal(z, 0) {
		t.Fatal("zero matrix canonicalization changed values")
	}
}

func TestStringContainsEntries(t *testing.T) {
	m := FromRows([][]complex128{{1.5, 0}, {0, -2}})
	s := m.String()
	if !strings.Contains(s, "1.5000") || !strings.Contains(s, "-2.0000") {
		t.Fatalf("String output missing entries:\n%s", s)
	}
}

func TestKronThreeFactors(t *testing.T) {
	x := FromRows([][]complex128{{0, 1}, {1, 0}})
	got := x.Kron(x).Kron(x)
	if got.Rows != 8 {
		t.Fatalf("triple Kron dim %d", got.Rows)
	}
	// X⊗X⊗X maps |000> to |111>.
	v := make([]complex128, 8)
	v[0] = 1
	if out := got.MulVec(v); out[7] != 1 {
		t.Fatal("X^⊗3 wrong")
	}
}

func TestScaleInPlaceAndAddInPlace(t *testing.T) {
	a := Identity(2)
	a.ScaleInPlace(3)
	if a.At(0, 0) != 3 {
		t.Fatal("ScaleInPlace")
	}
	a.AddInPlace(Identity(2))
	if a.At(1, 1) != 4 {
		t.Fatal("AddInPlace")
	}
}

func TestFingerprintSnapsTinyValues(t *testing.T) {
	a := Identity(2)
	b := Identity(2)
	b.Set(0, 1, complex(1e-9, -1e-9)) // below the snap threshold
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatal("tiny numerical noise changed the fingerprint")
	}
}

func TestEigHermitianOneByOne(t *testing.T) {
	h := FromRows([][]complex128{{2.5}})
	vals, vecs := EigHermitian(h)
	if math.Abs(vals[0]-2.5) > 1e-12 || vecs.At(0, 0) != 1 {
		t.Fatalf("1x1 eig: %v %v", vals, vecs)
	}
}

func TestPhaseDistanceClampsNegative(t *testing.T) {
	// Numerically |tr| can exceed n by round-off; the distance must
	// clamp at 0 instead of going NaN.
	u := Identity(3)
	if d := PhaseDistance(u, u); d != 0 || math.IsNaN(d) {
		t.Fatalf("self distance %v", d)
	}
}
