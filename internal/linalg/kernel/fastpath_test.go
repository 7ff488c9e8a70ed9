package kernel_test

import (
	"fmt"
	"math/rand"
	"testing"

	"epoc/internal/linalg/kernel"
	"epoc/internal/linalg/kerneltest"
)

// TestAdjointMulUnrolledMatchesGeneric: AdjointMul's unrolled 4×4 and
// 8×8 paths equal the generic adjMul loop bit for bit on every operand
// class, signed zeros and non-finite entries included.
func TestAdjointMulUnrolledMatchesGeneric(t *testing.T) {
	classes := append(kerneltest.Classes[:len(kerneltest.Classes):len(kerneltest.Classes)], kerneltest.Class{Name: "nonfinite", Gen: kerneltest.NonFinite})
	for _, cls := range classes {
		for _, n := range []int{4, 8} {
			t.Run(fmt.Sprintf("%s/%d", cls.Name, n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(n)*11 + 1))
				for draw := 0; draw < 16; draw++ {
					a, b := cls.Gen(n, n, rng), cls.Gen(n, n, rng)
					got := make([]complex128, n*n)
					want := make([]complex128, n*n)
					kernel.AdjointMul(got, a, b, n, n, n)
					kernel.AdjMulGeneric(want, a, b, n)
					if i, ok := kerneltest.BitEqual(got, want); !ok {
						t.Fatalf("draw %d: entry %d is %v, adjMul gives %v", draw, i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestAdjointMulKeepsLeadingZero: with a all +0 and b all −1−1i every
// product's real part is −0, so each entry's real part is −0 summed
// from its first term and +0 summed from adjMul's leading +0.
func TestAdjointMulKeepsLeadingZero(t *testing.T) {
	for _, n := range []int{4, 8} {
		a := make([]complex128, n*n)
		b := make([]complex128, n*n)
		for i := range b {
			b[i] = complex(-1, -1)
		}
		got := make([]complex128, n*n)
		want := make([]complex128, n*n)
		kernel.AdjointMul(got, a, b, n, n, n)
		kernel.AdjMulGeneric(want, a, b, n)
		if i, ok := kerneltest.BitEqual(got, want); !ok {
			t.Fatalf("n=%d: entry %d is %v, adjMul gives %v", n, i, got[i], want[i])
		}
	}
}
