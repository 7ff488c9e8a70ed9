package kerneltest

import (
	"fmt"
	"math/rand"
	"testing"

	"epoc/internal/linalg"
	"epoc/internal/linalg/kernel"
)

// The BenchmarkKernel* suite backs `make bench-kernels` and the PR's
// acceptance criterion: the unrolled 4×4/8×8 paths at ≥2× the naive
// triple loop, with the naive twins measured in the same process.

func benchSquare(b *testing.B, n int, f func(dst, a, bb []complex128)) {
	rng := rand.New(rand.NewSource(int64(n)))
	a := RandomDense(n, n, rng)
	bb := RandomDense(n, n, rng)
	dst := make([]complex128, n*n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(dst, a, bb)
	}
}

func BenchmarkKernelMul(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			benchSquare(b, n, func(dst, x, y []complex128) { kernel.MatMul(nil, dst, x, y, n, n, n) })
		})
	}
}

func BenchmarkNaiveMul(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			benchSquare(b, n, func(dst, x, y []complex128) { NaiveMatMul(dst, x, y, n, n, n) })
		})
	}
}

// prePRMul reproduces the seed's (*Matrix).Mul code path exactly — a
// fresh output allocation plus the zero-checking streaming loop — so
// BenchmarkPrePRMul is the honest "before" of the kernel layer's ≥2×
// acceptance criterion. NaiveMul above is the stricter comparison (the
// differential reference with no allocation at all).
func prePRMul(a, b []complex128, m, k, n int) []complex128 {
	out := make([]complex128, m*n)
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		orow := out[i*n : (i+1)*n]
		for p, av := range arow {
			// Exact-zero sparsity fast path replicated from the seed Mul.
			if av == 0 {
				continue
			}
			brow := b[p*n : (p+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

func BenchmarkPrePRMul(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			x := RandomDense(n, n, rng)
			y := RandomDense(n, n, rng)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				prePRMul(x, y, n, n, n)
			}
		})
	}
}

func BenchmarkKernelAdjointMul(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			benchSquare(b, n, func(dst, x, y []complex128) { kernel.AdjointMul(dst, x, y, n, n, n) })
		})
	}
}

func BenchmarkKernelExpIHermitian(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			h := linalg.RandomHermitian(n, rng)
			dst := linalg.NewMatrix(n, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				linalg.ExpIHermitianInto(nil, dst, h, -0.5)
			}
		})
	}
}

func BenchmarkKernelExpm(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			a := linalg.NewMatrix(n, n)
			copy(a.Data, RandomDense(n, n, rng))
			dst := linalg.NewMatrix(n, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				linalg.ExpmInto(dst, a)
			}
		})
	}
}
