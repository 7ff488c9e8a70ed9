package linalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// luSolve solves A·x = b through the LU core of ExpmInto's Padé solve:
// luFactor on a copy of A, then luSolvePermuted on the permuted b.
func luSolve(a *Matrix, b []complex128) ([]complex128, error) {
	lu := a.Clone()
	piv := make([]int, a.Rows)
	if err := luFactor(lu, piv); err != nil {
		return nil, err
	}
	x := make([]complex128, len(b))
	for i := range x {
		x[i] = b[piv[i]]
	}
	luSolvePermuted(lu, x)
	return x, nil
}

func TestLUSolveHand(t *testing.T) {
	a := FromRows([][]complex128{{2, 1}, {1, 3}})
	x, err := luSolve(a, []complex128{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	// 2x + y = 5, x + 3y = 10 → x = 1, y = 3
	if cmplx.Abs(x[0]-1) > tol || cmplx.Abs(x[1]-3) > tol {
		t.Fatalf("Solve: %v", x)
	}
}

func TestLUSingular(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {2, 4}})
	if err := luFactor(a, make([]int, 2)); err != ErrSingular {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
}

// luInverse returns A⁻¹ column by column through luSolve.
func luInverse(t *testing.T, a *Matrix) *Matrix {
	t.Helper()
	n := a.Rows
	inv := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		e := make([]complex128, n)
		e[j] = 1
		x, err := luSolve(a, e)
		if err != nil {
			t.Fatalf("luSolve (n=%d): %v", n, err)
		}
		for i, v := range x {
			inv.Set(i, j, v)
		}
	}
	return inv
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(5)
		a := randMat(n, rng)
		if !a.Mul(luInverse(t, a)).Equal(Identity(n), 1e-8) {
			t.Fatalf("A·A⁻¹ != I (n=%d)", n)
		}
	}
	// Well-conditioned inputs, entry-wise to 1e-10: a unitary shifted
	// off unitarity so the inverse is nontrivial.
	rng = rand.New(rand.NewSource(21))
	for _, n := range []int{2, 4, 8, 12} {
		a := RandomUnitary(n, rng)
		for i := 0; i < n; i++ {
			a.Data[i*n+i] += 2
		}
		if !a.Mul(luInverse(t, a)).Equal(Identity(n), 1e-10) {
			t.Fatalf("shifted unitary: A·A⁻¹ != I (n=%d)", n)
		}
	}
}

func TestQuickLUSolveResidual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		a := randMat(n, rng)
		b := make([]complex128, n)
		for i := range b {
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		x, err := luSolve(a, b)
		if err != nil {
			return true // singular draw: vacuously fine
		}
		got := a.MulVec(x)
		for i := range b {
			if cmplx.Abs(got[i]-b[i]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQRReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(6)
		a := randMat(n, rng)
		q, r := QRDecompose(a)
		if !q.IsUnitary(1e-9) {
			t.Fatalf("Q not unitary (n=%d)", n)
		}
		if !q.Mul(r).Equal(a, 1e-8) {
			t.Fatalf("QR != A (n=%d)", n)
		}
		// R upper triangular
		for i := 1; i < n; i++ {
			for j := 0; j < i; j++ {
				if cmplx.Abs(r.At(i, j)) > 1e-9 {
					t.Fatalf("R not upper triangular at (%d,%d): %v", i, j, r.At(i, j))
				}
			}
		}
	}
}

func TestQRTall(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := NewMatrix(5, 3)
	for i := range a.Data {
		a.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	q, r := QRDecompose(a)
	if !q.Mul(r).Equal(a, 1e-8) {
		t.Fatal("tall QR != A")
	}
}

func TestEigHermitianReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 12; trial++ {
		n := 2 + rng.Intn(7)
		h := RandomHermitian(n, rng)
		vals, vecs := EigHermitian(h)
		if !vecs.IsUnitary(1e-8) {
			t.Fatalf("eigenvectors not unitary (n=%d)", n)
		}
		// Ascending order.
		for i := 1; i < n; i++ {
			if vals[i] < vals[i-1]-1e-12 {
				t.Fatalf("eigenvalues not sorted: %v", vals)
			}
		}
		d := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			d.Set(i, i, complex(vals[i], 0))
		}
		rec := vecs.Mul(d).Mul(vecs.Adjoint())
		if !rec.Equal(h, 1e-7) {
			t.Fatalf("VDV† != H (n=%d):\n%v\nvs\n%v", n, rec, h)
		}
	}
}

func TestEigHermitianDiagonalInput(t *testing.T) {
	h := FromRows([][]complex128{{3, 0}, {0, -1}})
	vals, _ := EigHermitian(h)
	if math.Abs(vals[0]+1) > tol || math.Abs(vals[1]-3) > tol {
		t.Fatalf("vals: %v", vals)
	}
}

func TestExpmZeroIsIdentity(t *testing.T) {
	if !Expm(NewMatrix(3, 3)).Equal(Identity(3), tol) {
		t.Fatal("expm(0) != I")
	}
}

func TestExpmDiagonal(t *testing.T) {
	a := FromRows([][]complex128{{1, 0}, {0, 2i}})
	e := Expm(a)
	if cmplx.Abs(e.At(0, 0)-cmplx.Exp(1)) > 1e-10 || cmplx.Abs(e.At(1, 1)-cmplx.Exp(2i)) > 1e-10 {
		t.Fatalf("expm diagonal: %v", e)
	}
}

func TestExpmPauliRotation(t *testing.T) {
	// e^{-iθX/2} = cos(θ/2)·I - i·sin(θ/2)·X
	theta := 0.7
	x := FromRows([][]complex128{{0, 1}, {1, 0}})
	a := x.Scale(complex(0, -theta/2))
	e := Expm(a)
	c, s := math.Cos(theta/2), math.Sin(theta/2)
	want := FromRows([][]complex128{{complex(c, 0), complex(0, -s)}, {complex(0, -s), complex(c, 0)}})
	if !e.Equal(want, 1e-10) {
		t.Fatalf("expm rotation:\n%v\nwant\n%v", e, want)
	}
}

func TestExpmLargeNormScaling(t *testing.T) {
	// Force the scaling-and-squaring path with a norm well above theta13.
	rng := rand.New(rand.NewSource(2))
	a := randMat(4, rng).Scale(3)
	if a.OneNorm() < 6 {
		t.Fatalf("test precondition: norm %v too small to exercise scaling", a.OneNorm())
	}
	e := Expm(a)
	// Check e^A·e^{-A} = I.
	einv := Expm(a.Scale(-1))
	if !e.Mul(einv).Equal(Identity(4), 1e-6) {
		t.Fatal("expm(A)·expm(-A) != I for large-norm A")
	}
	// Skew-Hermitian large-norm input must stay exactly unitary.
	h := RandomHermitian(4, rng).Scale(10)
	u := Expm(h.Scale(complex(0, 1)))
	if !u.IsUnitary(1e-9) {
		t.Fatal("expm(iH) lost unitarity under scaling-and-squaring")
	}
}

func TestExpIHermitianUnitary(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 8; trial++ {
		n := 2 + rng.Intn(6)
		h := RandomHermitian(n, rng)
		u := NewMatrix(n, n)
		ExpIHermitianInto(nil, u, h, 0.37)
		if !u.IsUnitary(1e-8) {
			t.Fatalf("e^{isH} not unitary (n=%d)", n)
		}
		// Compare against the Padé path.
		want := Expm(h.Scale(complex(0, 0.37)))
		if !u.Equal(want, 1e-7) {
			t.Fatalf("eig vs Padé exponentials differ (n=%d)", n)
		}
	}
}

func TestHermitianEigReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	h := RandomHermitian(4, rng)
	vals, vecs := EigHermitian(h)
	u1, u2 := NewMatrix(4, 4), NewMatrix(4, 4)
	ExpIFromEigInto(nil, u1, vals, vecs, 0.1)
	ExpIFromEigInto(nil, u2, vals, vecs, 0.2)
	if !u1.Mul(u1).Equal(u2, 1e-8) {
		t.Fatal("e^{0.1iH}² != e^{0.2iH} from one eigendecomposition")
	}
}
