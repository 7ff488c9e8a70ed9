package linalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-9

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("got %dx%d", m.Rows, m.Cols)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d not zero: %v", i, v)
		}
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := complex128(0)
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("I[%d][%d] = %v", i, j, id.At(i, j))
			}
		}
	}
}

func TestFromRowsAndAt(t *testing.T) {
	m := FromRows([][]complex128{{1, 2}, {3i, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3i {
		t.Fatalf("unexpected elements: %v", m)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([][]complex128{{1, 2}, {3}})
}

func TestAddSubScale(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {3, 4}})
	b := FromRows([][]complex128{{5, 6}, {7, 8}})
	sum := a.Add(b)
	if sum.At(1, 1) != 12 {
		t.Fatalf("Add: %v", sum)
	}
	diff := b.Sub(a)
	if diff.At(0, 0) != 4 {
		t.Fatalf("Sub: %v", diff)
	}
	sc := a.Scale(2i)
	if sc.At(1, 0) != 6i {
		t.Fatalf("Scale: %v", sc)
	}
}

func TestMulAgainstHand(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {3, 4}})
	b := FromRows([][]complex128{{0, 1}, {1, 0}})
	got := a.Mul(b)
	want := FromRows([][]complex128{{2, 1}, {4, 3}})
	if !got.Equal(want, tol) {
		t.Fatalf("Mul:\n%v\nwant\n%v", got, want)
	}
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix(2, 3).Mul(NewMatrix(2, 3))
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {3, 4}})
	got := a.MulVec([]complex128{1, 1i})
	if got[0] != 1+2i || got[1] != 3+4i {
		t.Fatalf("MulVec: %v", got)
	}
}

func TestTransposeAdjoint(t *testing.T) {
	a := FromRows([][]complex128{{1, 2i}, {3, 4}})
	ad := a.Adjoint()
	if ad.At(1, 0) != -2i {
		t.Fatalf("Adjoint: %v", ad)
	}
}

func TestTrace(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {3, 4i}})
	if a.Trace() != 1+4i {
		t.Fatalf("Trace: %v", a.Trace())
	}
}

func TestKronSmall(t *testing.T) {
	x := FromRows([][]complex128{{0, 1}, {1, 0}})
	id := Identity(2)
	k := id.Kron(x)
	// I ⊗ X = block-diag(X, X)
	want := FromRows([][]complex128{
		{0, 1, 0, 0},
		{1, 0, 0, 0},
		{0, 0, 0, 1},
		{0, 0, 1, 0},
	})
	if !k.Equal(want, tol) {
		t.Fatalf("Kron:\n%v", k)
	}
}

func TestKronMixedProductProperty(t *testing.T) {
	// (A⊗B)(C⊗D) = (AC)⊗(BD)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		a, b := randMat(2, rng), randMat(3, rng)
		c, d := randMat(2, rng), randMat(3, rng)
		lhs := a.Kron(b).Mul(c.Kron(d))
		rhs := a.Mul(c).Kron(b.Mul(d))
		if !lhs.Equal(rhs, 1e-9) {
			t.Fatalf("mixed product property failed on trial %d", trial)
		}
	}
}

func TestNorms(t *testing.T) {
	a := FromRows([][]complex128{{3, 0}, {0, 4}})
	if math.Abs(a.FrobeniusNorm()-5) > tol {
		t.Fatalf("FrobeniusNorm: %v", a.FrobeniusNorm())
	}
	if math.Abs(a.OneNorm()-4) > tol {
		t.Fatalf("OneNorm: %v", a.OneNorm())
	}
}

// TestOneNormNaN: a NaN entry makes the norm NaN wherever its column
// falls, so a caller that gates on OneNorm cannot read a NaN matrix as
// a small one.
func TestOneNormNaN(t *testing.T) {
	for _, pos := range []int{0, 1, 2, 3} {
		for _, z := range []complex128{complex(math.NaN(), 0), complex(0, math.NaN())} {
			a := FromRows([][]complex128{{0.01, 5}, {0.02, 7}})
			a.Data[pos] = z
			if n := a.OneNorm(); !math.IsNaN(n) {
				t.Fatalf("NaN %v at entry %d: OneNorm %v, want NaN", z, pos, n)
			}
		}
	}
}

// TestExpmIntoNonFiniteNorm: a matrix whose norm is NaN or infinite and
// that takes no low Padé order has no scaling exponent; ExpmInto
// answers NaN in every entry instead of converting the norm to int.
func TestExpmIntoNonFiniteNorm(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := map[string]*Matrix{
		"all-nan":     FromRows([][]complex128{{complex(nan, nan), complex(nan, 0)}, {complex(0, nan), complex(nan, nan)}}),
		"nan-and-inf": FromRows([][]complex128{{complex(nan, 0), 0}, {0, complex(inf, 0)}}),
		"nan-large":   FromRows([][]complex128{{complex(nan, 0), 0}, {0, 40}}),
		"inf":         FromRows([][]complex128{{complex(-inf, 0), 0}, {0, 1}}),
	}
	for name, a := range cases {
		if m := lowPadeOrder(a); m != 0 {
			t.Fatalf("%s: low Padé order %d, want the scaling path", name, m)
		}
		dst := NewMatrix(2, 2)
		ExpmInto(dst, a)
		for i, v := range dst.Data {
			if !math.IsNaN(real(v)) || !math.IsNaN(imag(v)) {
				t.Fatalf("%s: entry %d is %v, want NaN", name, i, v)
			}
		}
	}
}

func TestIsUnitaryIsHermitian(t *testing.T) {
	h := FromRows([][]complex128{{1, 2i}, {-2i, 5}})
	if !h.IsHermitian(tol) {
		t.Fatal("h should be Hermitian")
	}
	if h.IsUnitary(tol) {
		t.Fatal("h should not be unitary")
	}
	rng := rand.New(rand.NewSource(1))
	u := RandomUnitary(4, rng)
	if !u.IsUnitary(1e-9) {
		t.Fatal("random unitary is not unitary")
	}
	if NewMatrix(2, 3).IsUnitary(tol) {
		t.Fatal("non-square cannot be unitary")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Identity(2)
	b := a.Clone()
	b.Set(0, 0, 9)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestStringRendering(t *testing.T) {
	s := Identity(2).String()
	if len(s) == 0 {
		t.Fatal("empty String()")
	}
}

func TestEqualShapeMismatch(t *testing.T) {
	if NewMatrix(2, 2).Equal(NewMatrix(2, 3), tol) {
		t.Fatal("different shapes compared equal")
	}
}

// quick-check: matrix addition commutes and Mul distributes over Add for
// random small matrices encoded by a seed.
func TestQuickAddCommutes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randMat(3, rng), randMat(3, rng)
		return a.Add(b).Equal(b.Add(a), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMulDistributes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := randMat(3, rng), randMat(3, rng), randMat(3, rng)
		lhs := a.Mul(b.Add(c))
		rhs := a.Mul(b).Add(a.Mul(c))
		return lhs.Equal(rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAdjointInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randMat(4, rng)
		return a.Adjoint().Adjoint().Equal(a, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTracePreservedBySimilarity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randMat(3, rng)
		u := RandomUnitary(3, rng)
		got := u.Adjoint().Mul(a).Mul(u).Trace()
		return cmplx.Abs(got-a.Trace()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func randMat(n int, rng *rand.Rand) *Matrix {
	m := NewMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return m
}
