package kerneltest

import (
	"fmt"
	"math/rand"
	"testing"

	"epoc/internal/linalg"
	"epoc/internal/linalg/kernel"
)

// squareSizes covers every unrolled fast path (2, 4, 8) and the
// generic streaming sizes around them. The pipeline's largest operand
// is 8 (3-qubit blocks); 16 is the 4-qubit model GRAPE's tests run.
var squareSizes = []int{2, 3, 4, 5, 7, 8, 9, 11, 13, 16}

// TestKernelMatMulMatchesNaive is the core differential property: for
// every operand class and size, every dispatch path of kernel.MatMul
// agrees with the left-to-right triple loop within summation tolerance.
func TestKernelMatMulMatchesNaive(t *testing.T) {
	for _, cls := range Classes {
		for _, n := range squareSizes {
			t.Run(fmt.Sprintf("%s/%dx%d", cls.Name, n, n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(n)*1000 + 7))
				a := cls.Gen(n, n, rng)
				b := cls.Gen(n, n, rng)
				got := make([]complex128, n*n)
				want := make([]complex128, n*n)
				kernel.MatMul(nil, got, a, b, n, n, n)
				NaiveMatMul(want, a, b, n, n, n)
				if d, tol := MaxDiff(got, want), SumTol(a, b, n); d > tol {
					t.Fatalf("kernel vs naive: max diff %g > tol %g", d, tol)
				}
			})
		}
	}
}

// TestKernelMatMulRectangular covers non-square shapes through the
// streaming loop, large dense ones included.
func TestKernelMatMulRectangular(t *testing.T) {
	shapes := [][3]int{{2, 5, 3}, {7, 4, 9}, {1, 16, 1}, {16, 1, 16}, {33, 40, 37}, {48, 48, 48}, {64, 33, 35}}
	rng := rand.New(rand.NewSource(42))
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			a := RandomDense(m, k, rng)
			b := RandomDense(k, n, rng)
			got := make([]complex128, m*n)
			want := make([]complex128, m*n)
			kernel.MatMul(nil, got, a, b, m, k, n)
			NaiveMatMul(want, a, b, m, k, n)
			if d, tol := MaxDiff(got, want), SumTol(a, b, k); d > tol {
				t.Fatalf("kernel vs naive: max diff %g > tol %g", d, tol)
			}
		})
	}
}

// TestKernelAdjointFusedMatchesNaive checks both adjoint-fused products
// against their references across classes and sizes.
func TestKernelAdjointFusedMatchesNaive(t *testing.T) {
	for _, cls := range Classes {
		for _, n := range squareSizes {
			t.Run(fmt.Sprintf("%s/%d", cls.Name, n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(n)*77 + 3))
				a := cls.Gen(n, n, rng)
				b := cls.Gen(n, n, rng)
				got := make([]complex128, n*n)
				want := make([]complex128, n*n)
				tol := SumTol(a, b, n)

				kernel.AdjointMul(got, a, b, n, n, n)
				NaiveAdjointMul(want, a, b, n, n, n)
				if d := MaxDiff(got, want); d > tol {
					t.Fatalf("AdjointMul vs naive: max diff %g > tol %g", d, tol)
				}

				kernel.MulAdjoint(got, a, b, n, n, n)
				NaiveMulAdjoint(want, a, b, n, n, n)
				if d := MaxDiff(got, want); d > tol {
					t.Fatalf("MulAdjoint vs naive: max diff %g > tol %g", d, tol)
				}
			})
		}
	}
}

// TestKernelMulVecMatchesNaive covers the vector product.
func TestKernelMulVecMatchesNaive(t *testing.T) {
	for _, cls := range Classes {
		for _, n := range squareSizes {
			rng := rand.New(rand.NewSource(int64(n)*13 + 1))
			a := cls.Gen(n, n, rng)
			v := RandomDense(n, 1, rng)
			got := make([]complex128, n)
			want := make([]complex128, n)
			kernel.MulVec(got, a, v, n, n)
			NaiveMulVec(want, a, v, n, n)
			if d, tol := MaxDiff(got, want), SumTol(a, v, n); d > tol {
				t.Fatalf("%s/%d: MulVec vs naive: max diff %g > tol %g", cls.Name, n, d, tol)
			}
		}
	}
}

// TestKernelDeterminism re-asserts the repo-wide reproducibility
// contract at the kernel level: the same operands produce bitwise
// identical results on every call — dispatch is a pure function of
// shape and values, so a Workers:1 and a Workers:8 pipeline run see
// the very same floats.
func TestKernelDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{4, 8, 16, 48} {
		a := RandomDense(n, n, rng)
		b := RandomDense(n, n, rng)
		ref := make([]complex128, n*n)
		kernel.MatMul(nil, ref, a, b, n, n, n)
		for trial := 0; trial < 3; trial++ {
			got := make([]complex128, n*n)
			kernel.MatMul(nil, got, a, b, n, n, n)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("n=%d trial %d: nondeterministic at %d: %v vs %v", n, trial, i, got[i], ref[i])
				}
			}
		}
	}
}

// Metamorphic identities: relations that must hold whatever the
// summation order, checked through the public linalg API so the whole
// dispatch stack is under test.

func TestMetamorphicAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{2, 4, 8, 13, 33} {
		a := linalg.NewMatrix(n, n)
		b := linalg.NewMatrix(n, n)
		c := linalg.NewMatrix(n, n)
		copy(a.Data, RandomDense(n, n, rng))
		copy(b.Data, RandomDense(n, n, rng))
		copy(c.Data, RandomDense(n, n, rng))
		left := a.Mul(b).Mul(c)
		right := a.Mul(b.Mul(c))
		tol := 64 * float64(n*n) * 2.220446049250313e-16 * MaxAbs(a.Data) * MaxAbs(b.Data) * MaxAbs(c.Data)
		if d := MaxDiff(left.Data, right.Data); d > tol {
			t.Fatalf("n=%d: (A·B)·C vs A·(B·C): max diff %g > tol %g", n, d, tol)
		}
	}
}

// TestMetamorphicInverseProduct builds A⁻¹ = R⁻¹·Q† from the public QR
// factorization (R inverted by back-substitution) and checks A·A⁻¹ = I
// entry-wise, which holds only if Q is unitary and Q·R reconstructs A.
func TestMetamorphicInverseProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{2, 4, 8, 12} {
		a := linalg.RandomUnitary(n, rng)
		// Shift away from unitarity so the inverse is nontrivial.
		for i := 0; i < n; i++ {
			a.Data[i*n+i] += complex(2, 0)
		}
		q, r := linalg.QRDecompose(a)
		rInv := linalg.NewMatrix(n, n)
		for j := 0; j < n; j++ {
			for i := j; i >= 0; i-- {
				var s complex128
				if i == j {
					s = 1
				}
				for k := i + 1; k <= j; k++ {
					s -= r.At(i, k) * rInv.At(k, j)
				}
				rInv.Set(i, j, s/r.At(i, i))
			}
		}
		got := a.Mul(rInv.Mul(q.Adjoint()))
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := complex128(0)
				if i == j {
					want = 1
				}
				if d := got.At(i, j) - want; real(d)*real(d)+imag(d)*imag(d) > 1e-20 {
					t.Fatalf("n=%d: (A·A⁻¹)[%d][%d] = %v, want %v", n, i, j, got.At(i, j), want)
				}
			}
		}
	}
}

func TestMetamorphicExpZeroIsIdentity(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		e := linalg.Expm(linalg.NewMatrix(n, n))
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := complex128(0)
				if i == j {
					want = 1
				}
				if e.At(i, j) != want {
					t.Fatalf("n=%d: exp(0)[%d][%d] = %v, want %v", n, i, j, e.At(i, j), want)
				}
			}
		}
	}
}

func TestMetamorphicExpIUnitary(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{2, 4, 8, 16} {
		h := linalg.RandomHermitian(n, rng)
		u := linalg.NewMatrix(n, n)
		linalg.ExpIHermitianInto(nil, u, h, 0.37)
		// Norm preservation: U†·U = I for any Hermitian generator.
		prod := linalg.NewMatrix(n, n)
		linalg.AdjointMulInto(prod, u, u)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := complex128(0)
				if i == j {
					want = 1
				}
				if d := prod.At(i, j) - want; real(d)*real(d)+imag(d)*imag(d) > 1e-20 {
					t.Fatalf("n=%d: (U†U)[%d][%d] = %v, want %v", n, i, j, prod.At(i, j), want)
				}
			}
		}
	}
}

func TestMetamorphicExpmInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{2, 4, 8} {
		a := linalg.NewMatrix(n, n)
		copy(a.Data, RandomDense(n, n, rng))
		neg := a.Scale(-1)
		prod := linalg.Expm(a).Mul(linalg.Expm(neg))
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := complex128(0)
				if i == j {
					want = 1
				}
				if d := prod.At(i, j) - want; real(d)*real(d)+imag(d)*imag(d) > 1e-16 {
					t.Fatalf("n=%d: (e^A·e^-A)[%d][%d] = %v, want %v", n, i, j, prod.At(i, j), want)
				}
			}
		}
	}
}

// TestIntoAPIsMatchAllocatingAPIs pins ExpmInto to its allocating
// twin Expm bit for bit: writing into a caller-owned matrix must never
// change numerics.
func TestIntoAPIsMatchAllocatingAPIs(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for _, n := range []int{2, 4, 8, 9, 16} {
		a := linalg.NewMatrix(n, n)
		copy(a.Data, RandomDense(n, n, rng))
		wantE := linalg.Expm(a)
		gotE := linalg.NewMatrix(n, n)
		linalg.ExpmInto(gotE, a)
		for i := range wantE.Data {
			if gotE.Data[i] != wantE.Data[i] {
				t.Fatalf("n=%d: ExpmInto differs at %d: %v vs %v", n, i, gotE.Data[i], wantE.Data[i])
			}
		}
	}
}
