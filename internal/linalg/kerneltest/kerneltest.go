// Package kerneltest is the differential test harness for the profiled
// kernel layer (internal/linalg/kernel). It holds the naive reference
// implementations every kernel is checked against, the operand
// generators (random dense, Haar unitaries, Hermitian, ill-conditioned,
// denormal, sparse), and the tolerance model for comparing two
// bit-deterministic summation orders. The package has no non-test
// consumers: it exists so the property-based tests, the fuzz targets
// and the kernel benchmarks share one vocabulary, and so the reference
// code can never be accidentally linked into the pipeline.
package kerneltest

import (
	"math"
	"math/cmplx"
	"math/rand"

	"epoc/internal/linalg"
)

// NaiveMatMul is the textbook triple loop: dst[i][j] = Σ_k a[i][k]·b[k][j]
// with the inner sum accumulated left to right. Every kernel path must
// agree with it to within SumTol of the operand magnitudes.
func NaiveMatMul(dst, a, b []complex128, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s complex128
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[p*n+j]
			}
			dst[i*n+j] = s
		}
	}
}

// NaiveMulVec is the reference matrix-vector product.
func NaiveMulVec(dst, a, v []complex128, m, n int) {
	for i := 0; i < m; i++ {
		var s complex128
		for j := 0; j < n; j++ {
			s += a[i*n+j] * v[j]
		}
		dst[i] = s
	}
}

// NaiveAdjointMul is the reference dst = a†·b for a (k×m), b (k×n).
func NaiveAdjointMul(dst, a, b []complex128, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s complex128
			for p := 0; p < k; p++ {
				s += cmplx.Conj(a[p*m+i]) * b[p*n+j]
			}
			dst[i*n+j] = s
		}
	}
}

// NaiveMulAdjoint is the reference dst = a·b† for a (m×k), b (n×k).
func NaiveMulAdjoint(dst, a, b []complex128, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s complex128
			for p := 0; p < k; p++ {
				s += a[i*k+p] * cmplx.Conj(b[j*k+p])
			}
			dst[i*n+j] = s
		}
	}
}

// SumTol bounds the difference between two correct k-term summations of
// the same products under different association: c·k·ε·max|a|·max|b|
// with a small constant. Denormal operands are covered by the absolute
// floor.
func SumTol(a, b []complex128, k int) float64 {
	scale := MaxAbs(a) * MaxAbs(b)
	tol := 8 * float64(k+1) * 2.220446049250313e-16 * scale
	if tol < 1e-300 {
		tol = 1e-300
	}
	return tol
}

// MaxAbs returns the largest entry magnitude (0 for an empty slice).
func MaxAbs(s []complex128) float64 {
	var m float64
	for _, v := range s {
		if ab := cmplx.Abs(v); ab > m {
			m = ab
		}
	}
	return m
}

// MaxDiff returns the largest |x[i]-y[i]|.
func MaxDiff(x, y []complex128) float64 {
	var m float64
	for i := range x {
		if d := cmplx.Abs(x[i] - y[i]); d > m {
			m = d
		}
	}
	return m
}

// Operand generators. All take the rng so table-driven tests stay
// deterministic per seed.

// RandomDense fills an m×n operand with standard complex Gaussians.
func RandomDense(m, n int, rng *rand.Rand) []complex128 {
	out := make([]complex128, m*n)
	for i := range out {
		out[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return out
}

// RandomSparse zeroes all but a `fill` fraction of a random operand, so
// the kernel's zero-skip streaming path is hit.
func RandomSparse(m, n int, fill float64, rng *rand.Rand) []complex128 {
	out := make([]complex128, m*n)
	for i := range out {
		if rng.Float64() < fill {
			out[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	return out
}

// RandomUnitary returns a Haar unitary's raw data.
func RandomUnitary(n int, rng *rand.Rand) []complex128 {
	return linalg.RandomUnitary(n, rng).Data
}

// RandomHermitian returns a GUE-like Hermitian matrix's raw data.
func RandomHermitian(n int, rng *rand.Rand) []complex128 {
	return linalg.RandomHermitian(n, rng).Data
}

// IllConditioned builds an n×n matrix with singular values spanning
// ~16 orders of magnitude (U·diag(10^{-15}..1)·V† for Haar U, V), the
// worst case the pipeline's Padé denominators and projector chains see.
func IllConditioned(n int, rng *rand.Rand) []complex128 {
	u := linalg.RandomUnitary(n, rng)
	v := linalg.RandomUnitary(n, rng)
	d := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		exp := -15 * float64(i) / math.Max(1, float64(n-1))
		d.Data[i*n+i] = complex(math.Pow(10, exp), 0)
	}
	return u.Mul(d).Mul(v.Adjoint()).Data
}

// Denormal fills an m×n operand with subnormal-magnitude entries
// (~1e-310), exercising gradual underflow in the accumulators.
func Denormal(m, n int, rng *rand.Rand) []complex128 {
	out := make([]complex128, m*n)
	for i := range out {
		out[i] = complex(rng.NormFloat64()*1e-310, rng.NormFloat64()*1e-310)
	}
	return out
}

// SignedZeros fills an m×n operand whose components are each +0, −0 or
// a Gaussian with equal odds: the operands on which summation that
// starts at +0 and summation that starts at its first term differ.
func SignedZeros(m, n int, rng *rand.Rand) []complex128 {
	return signedZeros(m, n, 3, rng)
}

// Zeros fills an m×n operand with +0 and −0 components at random: every
// product and sum is then a zero whose sign is all that can differ.
func Zeros(m, n int, rng *rand.Rand) []complex128 {
	return signedZeros(m, n, 2, rng)
}

func signedZeros(m, n, kinds int, rng *rand.Rand) []complex128 {
	part := func() float64 {
		switch rng.Intn(kinds) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		}
		return rng.NormFloat64()
	}
	out := make([]complex128, m*n)
	for i := range out {
		out[i] = complex(part(), part())
	}
	return out
}

// NonFinite is a dense operand with a NaN, a +Inf and a −Inf component
// planted at random entries.
func NonFinite(m, n int, rng *rand.Rand) []complex128 {
	out := RandomDense(m, n, rng)
	out[rng.Intn(len(out))] = complex(math.NaN(), 1)
	out[rng.Intn(len(out))] = complex(0, math.Inf(1))
	out[rng.Intn(len(out))] = complex(math.Inf(-1), -2)
	return out
}

// Class is a named operand family; each generator may ignore the
// aspect ratio it cannot express (square families use the row count).
type Class struct {
	Name string
	Gen  func(m, n int, rng *rand.Rand) []complex128
}

// Classes are the finite operand families every kernel must handle.
var Classes = []Class{
	{"dense", RandomDense},
	{"sparse10", func(m, n int, rng *rand.Rand) []complex128 { return RandomSparse(m, n, 0.1, rng) }},
	{"unitary", func(m, n int, rng *rand.Rand) []complex128 { return RandomUnitary(m, rng) }},
	{"hermitian", func(m, n int, rng *rand.Rand) []complex128 { return RandomHermitian(m, rng) }},
	{"illcond", func(m, n int, rng *rand.Rand) []complex128 { return IllConditioned(m, rng) }},
	{"denormal", Denormal},
	{"signedzero", SignedZeros},
	{"zeros", Zeros},
}

// BitEqual reports whether x and y hold the same bits, entry by entry,
// and otherwise the first index where they differ. +0 and −0 differ.
// Any NaN equals any other: an operation on two NaNs returns one of
// their payloads, and the compiler may order the operands of a
// commutative operation either way.
func BitEqual(x, y []complex128) (int, bool) {
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	for i := range x {
		if !same(real(x[i]), real(y[i])) || !same(imag(x[i]), imag(y[i])) {
			return i, false
		}
	}
	return -1, true
}
