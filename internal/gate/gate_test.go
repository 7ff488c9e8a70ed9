package gate

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"epoc/internal/linalg"
)

const tol = 1e-10

func TestAllFixedGatesAreUnitary(t *testing.T) {
	for kind, spec := range Registry {
		params := make([]float64, spec.Params)
		for i := range params {
			params[i] = 0.3 * float64(i+1)
		}
		g := New(kind, params...)
		m := g.Matrix()
		if m.Rows != 1<<spec.Qubits {
			t.Errorf("%s: matrix is %dx%d for %d qubits", kind, m.Rows, m.Cols, spec.Qubits)
		}
		if !m.IsUnitary(tol) {
			t.Errorf("%s: matrix not unitary:\n%v", kind, m)
		}
	}
}

func TestPauliAlgebra(t *testing.T) {
	x := New(X).Matrix()
	y := New(Y).Matrix()
	z := New(Z).Matrix()
	// XY = iZ
	if !x.Mul(y).Equal(z.Scale(1i), tol) {
		t.Fatal("XY != iZ")
	}
	// HXH = Z
	h := New(H).Matrix()
	if !h.Mul(x).Mul(h).Equal(z, tol) {
		t.Fatal("HXH != Z")
	}
	// S² = Z, T² = S
	s := New(S).Matrix()
	if !s.Mul(s).Equal(z, tol) {
		t.Fatal("S² != Z")
	}
	tt := New(T).Matrix()
	if !tt.Mul(tt).Equal(s, tol) {
		t.Fatal("T² != S")
	}
	// SX² = X
	sx := New(SX).Matrix()
	if !sx.Mul(sx).Equal(x, tol) {
		t.Fatal("SX² != X")
	}
}

func TestRotationsMatchExponentials(t *testing.T) {
	theta := 1.234
	for _, tc := range []struct {
		kind Kind
		p    *linalg.Matrix
	}{
		{RX, New(X).Matrix()},
		{RY, New(Y).Matrix()},
		{RZ, New(Z).Matrix()},
	} {
		want := linalg.Expm(tc.p.Scale(complex(0, -theta/2)))
		got := New(tc.kind, theta).Matrix()
		if !got.Equal(want, tol) {
			t.Errorf("%s(θ) != exp(-iθP/2):\n%v\nvs\n%v", tc.kind, got, want)
		}
	}
}

func TestU3SpecialCases(t *testing.T) {
	// U3(π, 0, π) = X
	if !New(U3, math.Pi, 0, math.Pi).Matrix().Equal(New(X).Matrix(), tol) {
		t.Fatal("U3(π,0,π) != X")
	}
	// U3(π/2, 0, π) = H
	if !New(U3, math.Pi/2, 0, math.Pi).Matrix().Equal(New(H).Matrix(), tol) {
		t.Fatal("U3(π/2,0,π) != H")
	}
	// U2(φ,λ) = U3(π/2,φ,λ)
	if !New(U2, 0.3, 0.7).Matrix().Equal(New(U3, math.Pi/2, 0.3, 0.7).Matrix(), tol) {
		t.Fatal("U2 != U3(π/2,·,·)")
	}
	// U1(λ) = P(λ)
	if !New(U1, 0.9).Matrix().Equal(New(P, 0.9).Matrix(), tol) {
		t.Fatal("U1 != P")
	}
}

func TestCXTruthTable(t *testing.T) {
	cx := New(CX).Matrix()
	// Little-endian: index = (target<<1)|control. c=1,t=0 (idx 1) → c=1,t=1 (idx 3).
	cases := map[int]int{0: 0, 1: 3, 2: 2, 3: 1}
	for in, out := range cases {
		for row := 0; row < 4; row++ {
			want := complex128(0)
			if row == out {
				want = 1
			}
			if cx.At(row, in) != want {
				t.Fatalf("CX[%d][%d] = %v, want %v", row, in, cx.At(row, in), want)
			}
		}
	}
}

func TestCZSymmetric(t *testing.T) {
	cz := New(CZ).Matrix()
	// CZ is real, so its adjoint is its transpose.
	if !cz.Equal(cz.Adjoint(), tol) {
		t.Fatal("CZ should be symmetric")
	}
	// Only |11> picks up the minus sign.
	if cz.At(3, 3) != -1 || cz.At(0, 0) != 1 || cz.At(1, 1) != 1 || cz.At(2, 2) != 1 {
		t.Fatalf("CZ diagonal wrong:\n%v", cz)
	}
}

func TestSwapTruthTable(t *testing.T) {
	sw := New(SWAP).Matrix()
	v := []complex128{0, 1, 0, 0} // |q1=0, q0=1>
	got := sw.MulVec(v)
	if got[2] != 1 { // expect |q1=1, q0=0>
		t.Fatalf("SWAP|01> = %v", got)
	}
}

func TestToffoliTruthTable(t *testing.T) {
	ccx := New(CCX).Matrix()
	// controls q0,q1 set (bits 0,1), target q2: |011> (3) <-> |111> (7)
	for in, out := range map[int]int{0: 0, 1: 1, 2: 2, 3: 7, 4: 4, 5: 5, 6: 6, 7: 3} {
		v := make([]complex128, 8)
		v[in] = 1
		got := ccx.MulVec(v)
		if got[out] != 1 {
			t.Fatalf("CCX|%03b> expected |%03b>, got %v", in, out, got)
		}
	}
}

func TestFredkinTruthTable(t *testing.T) {
	cs := New(CSWP).Matrix()
	// control q0=1: swap q1,q2. |c=1,q1=1,q2=0> = 0b011 = 3 → 0b101 = 5.
	for in, out := range map[int]int{0: 0, 1: 1, 2: 2, 3: 5, 4: 4, 5: 3, 6: 6, 7: 7} {
		v := make([]complex128, 8)
		v[in] = 1
		got := cs.MulVec(v)
		if got[out] != 1 {
			t.Fatalf("CSWAP|%03b> expected |%03b>", in, out)
		}
	}
}

func TestRZZDiagonal(t *testing.T) {
	theta := 0.8
	m := New(RZZ, theta).Matrix()
	e := func(s float64) complex128 {
		return complex(math.Cos(s), math.Sin(s))
	}
	want := []complex128{e(-theta / 2), e(theta / 2), e(theta / 2), e(-theta / 2)}
	for i, w := range want {
		if d := m.At(i, i) - w; math.Abs(real(d))+math.Abs(imag(d)) > tol {
			t.Fatalf("RZZ diag[%d] = %v, want %v", i, m.At(i, i), w)
		}
	}
}

func TestDaggerInvertsEveryKind(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for kind, spec := range Registry {
		params := make([]float64, spec.Params)
		for i := range params {
			params[i] = rng.Float64()*2 - 1
		}
		g := New(kind, params...)
		id := linalg.Identity(1 << spec.Qubits)
		prod := g.Matrix().Mul(g.Dagger().Matrix())
		if !prod.Equal(id, 1e-9) {
			t.Errorf("%s: G·G† != I:\n%v", kind, prod)
		}
	}
}

func TestDaggerBlockGates(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := NewUnitary(linalg.RandomUnitary(4, rng))
	if !g.Matrix().Mul(g.Dagger().Matrix()).Equal(linalg.Identity(4), 1e-9) {
		t.Errorf("%s block dagger failed", g.Kind)
	}
}

func TestBlockGateQubits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 3; n++ {
		g := NewUnitary(linalg.RandomUnitary(1<<n, rng))
		if g.Qubits() != n {
			t.Fatalf("block on %d qubits reports %d", n, g.Qubits())
		}
		if !g.IsBlock() {
			t.Fatal("unitary should be a block")
		}
	}
	if New(CX).IsBlock() {
		t.Fatal("CX is not a block")
	}
}

func TestNewValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { New(Kind("nope")) },
		func() { New(RX) },                            // missing param
		func() { New(X, 1.0) },                        // extra param
		func() { NewUnitary(linalg.NewMatrix(3, 3)) }, // not a power of two
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

func TestIsDiagonal(t *testing.T) {
	for _, k := range []Kind{Z, S, T, RZ, CZ, RZZ, P} {
		spec := Registry[k]
		params := make([]float64, spec.Params)
		for i := range params {
			params[i] = 0.4
		}
		g := New(k, params...)
		m := g.Matrix()
		for i := 0; i < m.Rows; i++ {
			for j := 0; j < m.Cols; j++ {
				if i != j && m.At(i, j) != 0 {
					t.Fatalf("%s claims diagonal but M[%d][%d]=%v", k, i, j, m.At(i, j))
				}
			}
		}
		if !g.IsDiagonal() {
			t.Fatalf("%s should report IsDiagonal", k)
		}
	}
	if New(X).IsDiagonal() || New(H).IsDiagonal() {
		t.Fatal("X/H are not diagonal")
	}
}

func TestStringFormats(t *testing.T) {
	if New(X).String() != "x" {
		t.Fatalf("X string: %q", New(X).String())
	}
	if got := New(RX, 0.5).String(); got != "rx(0.5)" {
		t.Fatalf("RX string: %q", got)
	}
	rng := rand.New(rand.NewSource(1))
	if got := NewUnitary(linalg.RandomUnitary(2, rng)).String(); got != "unitary[1q]" {
		t.Fatalf("Unitary string: %q", got)
	}
}

func TestQuickRotationComposition(t *testing.T) {
	// RZ(a)·RZ(b) = RZ(a+b) for random angles.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := rng.Float64()*4-2, rng.Float64()*4-2
		lhs := New(RZ, a).Matrix().Mul(New(RZ, b).Matrix())
		rhs := New(RZ, a+b).Matrix()
		return lhs.Equal(rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickU3Covers1QUnitaries(t *testing.T) {
	// Any U3 matrix must be unitary for arbitrary angles.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New(U3, rng.Float64()*6, rng.Float64()*6, rng.Float64()*6)
		return g.Matrix().IsUnitary(1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
