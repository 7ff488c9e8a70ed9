package linalg_test

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"epoc/internal/linalg"
	"epoc/internal/linalg/kerneltest"
)

// fixedSizes are the dimensions with a fixed-size Padé and LU path.
var fixedSizes = []int{2, 4, 8}

func operand(n int, data []complex128) *linalg.Matrix {
	m := linalg.NewMatrix(n, n)
	copy(m.Data, data)
	return m
}

// TestPadeSmallMatchesGeneric: the fixed-size Padé path equals padeInto
// bit for bit, for every low order, at every fixed size, on every
// finite operand class. An infinite entry never reaches it (its
// column sum fails every low-order bound); a NaN can, and is
// TestExpmIntoNaNMatchesGeneric's case.
func TestPadeSmallMatchesGeneric(t *testing.T) {
	for _, cls := range kerneltest.Classes {
		for _, n := range fixedSizes {
			for _, m := range []int{3, 5, 7, 9} {
				rng := rand.New(rand.NewSource(int64(100*n + m)))
				// Scale each draw to a 1-norm of 0.5, where the slice
				// steps run, and also keep one draw unscaled.
				for draw := 0; draw < 4; draw++ {
					a := operand(n, cls.Gen(n, n, rng))
					if nrm := a.OneNorm(); draw > 0 && nrm > 0 {
						a.ScaleInPlace(complex(0.5/nrm, 0))
					}
					want := linalg.NewMatrix(n, n)
					got := linalg.NewMatrix(n, n)
					linalg.PadeGeneric(want, a, m)
					linalg.PadeSmall(got, a, m)
					if i, ok := kerneltest.BitEqual(got.Data, want.Data); !ok {
						t.Fatalf("%s n=%d m=%d draw %d: entry %d is %v, padeInto gives %v", cls.Name, n, m, draw, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

// TestExpmIntoNaNMatchesGeneric: OneNorm skips a column whose sum is
// NaN, so an input with a NaN entry can still take a low Padé order.
// ExpmInto's fixed-size path then returns what padeInto returns at
// that order: NaN in every entry.
func TestExpmIntoNaNMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range fixedSizes {
		for draw := 0; draw < 8; draw++ {
			a := operand(n, kerneltest.RandomDense(n, n, rng))
			a.ScaleInPlace(complex(0.1/a.OneNorm(), 0))
			a.Data[rng.Intn(n*n)] = complex(math.NaN(), 0)
			m := linalg.LowPadeOrder(a)
			if m == 0 {
				t.Fatalf("n=%d: OneNorm %v takes no low order", n, a.OneNorm())
			}
			want := linalg.NewMatrix(n, n)
			got := linalg.NewMatrix(n, n)
			linalg.PadeGeneric(want, a, m)
			linalg.ExpmInto(nil, got, a)
			if i, ok := kerneltest.BitEqual(got.Data, want.Data); !ok {
				t.Fatalf("n=%d draw %d: entry %d is %v, padeInto gives %v", n, draw, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestPadeSmallSignedZeros runs the fixed-size Padé on a real negative
// diagonal with ±0 elsewhere, where A² carries −0 components and only
// the sums' +0 start keeps every bit equal to padeInto's.
func TestPadeSmallSignedZeros(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range fixedSizes {
		for _, m := range []int{3, 5, 7, 9} {
			for draw := 0; draw < 16; draw++ {
				a := operand(n, kerneltest.Zeros(n, n, rng))
				for i := 0; i < n; i++ {
					a.Data[i*n+i] = complex(-0.01*float64(i+1), math.Copysign(0, -1))
				}
				want := linalg.NewMatrix(n, n)
				got := linalg.NewMatrix(n, n)
				linalg.PadeGeneric(want, a, m)
				linalg.PadeSmall(got, a, m)
				if i, ok := kerneltest.BitEqual(got.Data, want.Data); !ok {
					t.Fatalf("n=%d m=%d draw %d: entry %d is %v, padeInto gives %v", n, m, draw, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestLUSolveSmallMatchesGeneric: the fixed-size LU solve equals
// luFactor plus luSolvePermuted bit for bit, pivots and non-finite
// entries included.
func TestLUSolveSmallMatchesGeneric(t *testing.T) {
	classes := append(kerneltest.Classes[:len(kerneltest.Classes):len(kerneltest.Classes)], kerneltest.Class{Name: "nonfinite", Gen: kerneltest.NonFinite})
	for _, cls := range classes {
		for _, n := range fixedSizes {
			t.Run(fmt.Sprintf("%s/%d", cls.Name, n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(n)*31 + 5))
				for draw := 0; draw < 8; draw++ {
					den := operand(n, cls.Gen(n, n, rng))
					num := operand(n, cls.Gen(n, n, rng))
					wantDen := den.Clone()
					want := linalg.NewMatrix(n, n)
					if !linalg.LUSolveGeneric(want, wantDen, num) {
						continue // singular: both paths panic
					}
					got := linalg.NewMatrix(n, n)
					linalg.LUSolveSmall(got, den, num)
					if i, ok := kerneltest.BitEqual(den.Data, wantDen.Data); !ok {
						t.Fatalf("draw %d: factor entry %d is %v, luFactor gives %v", draw, i, den.Data[i], wantDen.Data[i])
					}
					if i, ok := kerneltest.BitEqual(got.Data, want.Data); !ok {
						t.Fatalf("draw %d: solution entry %d is %v, luSolvePermuted gives %v", draw, i, got.Data[i], want.Data[i])
					}
				}
			})
		}
	}
}

// TestSmithDivMatchesGoDivision: the hoisted Smith division equals Go's
// complex division bit for bit on random operands and on every pairing
// of zeros, infinities, NaNs, denormals and extremes, where the
// runtime's C99 corrections apply.
func TestSmithDivMatchesGoDivision(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	parts := []float64{0, math.Copysign(0, -1), 1, -2.5, 1e-310, -1e-310, 1e308, -1e308, inf, -inf, nan, 3e-200}
	var vals []complex128
	for _, re := range parts {
		for _, im := range parts {
			vals = append(vals, complex(re, im))
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		vals = append(vals, complex(rng.NormFloat64(), rng.NormFloat64()))
	}
	for _, n := range vals {
		for _, m := range vals {
			got, want := linalg.SmithDiv(n, m), n/m
			if _, ok := kerneltest.BitEqual([]complex128{got}, []complex128{want}); !ok {
				t.Fatalf("(%v)/(%v): smithDiv gives %v, Go gives %v", n, m, got, want)
			}
		}
	}
}

// TestLowPadeOrderMatchesOneNorm: the order ExpmInto picks from its
// square-root norm estimate is the order OneNorm picks, on every
// operand class at random scales, at norms within a few ulps of each
// bound, and on non-finite and overflowing operands.
func TestLowPadeOrderMatchesOneNorm(t *testing.T) {
	thetas := []float64{1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1, 2.097847961257068}
	want := func(a *linalg.Matrix) int {
		norm := a.OneNorm()
		for k, theta := range thetas {
			if norm <= theta {
				return []int{3, 5, 7, 9}[k]
			}
		}
		return 0
	}
	check := func(name string, a *linalg.Matrix) {
		t.Helper()
		if got, w := linalg.LowPadeOrder(a), want(a); got != w {
			t.Fatalf("%s: order %d, OneNorm %v gives %d", name, got, a.OneNorm(), w)
		}
	}
	classes := append(kerneltest.Classes[:len(kerneltest.Classes):len(kerneltest.Classes)], kerneltest.Class{Name: "nonfinite", Gen: kerneltest.NonFinite})
	rng := rand.New(rand.NewSource(3))
	for _, cls := range classes {
		for _, n := range []int{2, 3, 4, 8, 16} {
			for draw := 0; draw < 20; draw++ {
				a := operand(n, cls.Gen(n, n, rng))
				nrm := a.OneNorm()
				if nrm == 0 || math.IsNaN(nrm) || math.IsInf(nrm, 0) {
					check(cls.Name, a)
					continue
				}
				a.ScaleInPlace(complex(math.Exp(rng.Float64()*8-6)/nrm, 0))
				check(cls.Name, a)
				// Land on each bound and a few ulps either side of it.
				for _, theta := range thetas {
					for _, f := range []float64{1 - 4e-16, 1 - 2e-16, 1, 1 + 2e-16, 1 + 4e-16} {
						b := a.Scale(complex(theta*f/a.OneNorm(), 0))
						check(fmt.Sprintf("%s/n%d/θ%g·%v", cls.Name, n, theta, f), b)
					}
				}
			}
		}
	}
	huge := operand(2, []complex128{1e200, 1e200i, -1e200, 1})
	check("overflow", huge)
}

// TestAbsGreaterMatchesHypot: the pivot comparison from squared
// magnitudes agrees with comparing cmplx.Abs on random pairs, on ties
// and near ties, and across zeros, denormals, extremes, Inf and NaN.
func TestAbsGreaterMatchesHypot(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	parts := []float64{0, math.Copysign(0, -1), 1, -1, 3e-300, 1e-310, 1e155, -1e200, inf, nan, 0.5, 1 + 0x1p-52}
	var vals []complex128
	for _, re := range parts {
		for _, im := range parts {
			vals = append(vals, complex(re, im))
		}
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		z := complex(rng.NormFloat64(), rng.NormFloat64())
		// A near-twin whose magnitude differs in the last bits.
		vals = append(vals, z, z*complex(1+float64(rng.Intn(5)-2)*0x1p-52, 0), complex(imag(z), real(z)))
	}
	for _, x := range vals {
		for _, y := range vals {
			if got, want := linalg.AbsGreater(x, y), cmplx.Abs(x) > cmplx.Abs(y); got != want {
				t.Fatalf("|%v| > |%v|: %v, hypot says %v", x, y, got, want)
			}
		}
	}
}
