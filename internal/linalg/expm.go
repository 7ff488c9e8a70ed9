package linalg

import (
	"math"
	"math/cmplx"

	"epoc/internal/linalg/kernel"
)

// Expm returns the matrix exponential e^A computed with the
// scaling-and-squaring algorithm and a degree-13 Padé approximant
// (Higham 2005). It works for arbitrary square complex matrices.
func Expm(a *Matrix) *Matrix {
	out := NewMatrix(a.Rows, a.Rows)
	ExpmInto(nil, out, a)
	return out
}

// ExpmInto is Expm writing into a caller-owned dst with every
// temporary — Padé powers, the LU factorization of the denominator and
// the squaring ping-pong buffers — drawn from ws (nil allowed). dst
// must be pre-shaped n×n and must not alias a.
//
//epoc:hot
func ExpmInto(ws *kernel.Workspace, dst, a *Matrix) {
	mustSquare(a)
	if dst.Rows != a.Rows || dst.Cols != a.Cols {
		panic("linalg: ExpmInto shape mismatch")
	}
	n := a.Rows
	if m := lowPadeOrder(a); m != 0 {
		// The unscaled low orders: GRAPE's slice steps, on the stack
		// at the qubit dimensions 2, 4 and 8.
		switch n {
		case 2:
			var s [padeTemps * 4]complex128
			padeSmall(dst.Data, a.Data, s[:], 2, m)
		case 4:
			var s [padeTemps * 16]complex128
			padeSmall(dst.Data, a.Data, s[:], 4, m)
		case 8:
			var s [padeTemps * 64]complex128
			padeSmall(dst.Data, a.Data, s[:], 8, m)
		default:
			padeInto(ws, dst, a, m)
		}
		return
	}
	// Scale so the norm falls below theta13, square back afterwards:
	// the scaling-and-squaring core. The squaring loop ping-pongs
	// between dst and one workspace buffer, so no product allocates.
	norm := a.OneNorm()
	if !(norm <= math.MaxFloat64) {
		// A NaN or infinite norm has no scaling exponent (converting
		// it to int is undefined), and e^A has no finite entries to
		// give: answer NaN in every entry.
		for i := range dst.Data {
			dst.Data[i] = complex(math.NaN(), math.NaN())
		}
		return
	}
	mark := ws.Mark()
	defer ws.Rewind(mark)
	s := 0
	if norm > theta13 {
		s = int(math.Ceil(math.Log2(norm / theta13)))
	}
	scaled := matrixAt(ws, n, n)
	copy(scaled.Data, a.Data)
	scaled.ScaleInPlace(complex(math.Pow(2, -float64(s)), 0))
	padeInto(ws, dst, &scaled, 13)
	tmp := matrixAt(ws, n, n)
	cur, oth := dst, &tmp
	for i := 0; i < s; i++ {
		MulInto(oth, cur, cur)
		cur, oth = oth, cur
	}
	if cur != dst {
		copy(dst.Data, cur.Data)
	}
}

// The Padé orders below 13 and the 1-norm bounds θ_m up to which each
// is accurate (Higham 2005), and θ₁₃, above which ExpmInto scales.
var (
	lowPadeOrders = [4]int{3, 5, 7, 9}
	lowPadeThetas = [4]float64{1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1, 2.097847961257068}
)

const theta13 = 5.371920351148152

// lowPadeOrder returns the smallest order m ∈ {3, 5, 7, 9} with
// a.OneNorm() ≤ θ_m, or 0 when the norm exceeds θ₉, without a hypot
// per entry in the common case: for n ≤ 64 it first sums √(re² + im²)
// instead. Each such column sum is within 150 ulps of OneNorm's (hypot
// and the square root are each within a few ulps of |z|, and each sum
// of at most 64 terms rounds by at most 63 ulps), so when the estimate
// is more than a relative 1e-12 from every θ, each comparison comes out
// as it would on OneNorm. Otherwise, or when the estimate is not
// finite, it compares OneNorm itself. Squares that underflow lose at
// most 64·1e-154 in all, far inside the margin.
//
// A NaN entry makes OneNorm NaN, and the order is then chosen from the
// other entries (nonNaNNorm): NaN reaches every entry of the result at
// any order (see padeSmall), so the order bears only on cost. An
// infinite entry, or a matrix with no entry that is not NaN, takes no
// low order, and ExpmInto answers it without a Padé step.
func lowPadeOrder(a *Matrix) int {
	n := a.Rows
	norm := math.NaN()
	if n <= 64 {
		norm = 0
		for j := 0; j < n; j++ {
			var s float64
			for i := j; i < len(a.Data); i += n {
				z := a.Data[i]
				s += math.Sqrt(real(z)*real(z) + imag(z)*imag(z))
			}
			norm = max(norm, s)
		}
		for _, theta := range lowPadeThetas {
			if !(math.Abs(norm-theta) > 1e-12*theta) { // also true for NaN
				norm = math.NaN()
			}
		}
	}
	if math.IsNaN(norm) {
		norm = nonNaNNorm(a)
	}
	for k, theta := range lowPadeThetas {
		if norm <= theta {
			return lowPadeOrders[k]
		}
	}
	return 0
}

// nonNaNNorm is OneNorm over the entries whose magnitude is not NaN,
// summed in OneNorm's order, or NaN when there is no such entry.
func nonNaNNorm(a *Matrix) float64 {
	norm, seen := 0.0, false
	for j := 0; j < a.Cols; j++ {
		var s float64
		for i := j; i < len(a.Data); i += a.Cols {
			if v := cmplx.Abs(a.Data[i]); !math.IsNaN(v) {
				s += v
				seen = true
			}
		}
		norm = max(norm, s)
	}
	if !seen {
		return math.NaN()
	}
	return norm
}

// padeCoeffs returns the Padé numerator coefficients for order m.
func padeCoeffs(m int) []float64 {
	switch m {
	case 3:
		return []float64{120, 60, 12, 1}
	case 5:
		return []float64{30240, 15120, 3360, 420, 30, 1}
	case 7:
		return []float64{17297280, 8648640, 1995840, 277200, 25200, 1512, 56, 1}
	case 9:
		return []float64{17643225600, 8821612800, 2075673600, 302702400, 30270240, 2162160, 110880, 3960, 90, 1}
	case 13:
		return []float64{64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800, 129060195264000, 10559470521600, 670442572800, 33522128640, 1323241920, 40840800, 960960, 16380, 182, 1}
	}
	panic("linalg: unsupported Padé order")
}

// padeInto writes the order-m Padé approximant of e^a into dst using
// only workspace temporaries.
//
//epoc:hot
func padeInto(ws *kernel.Workspace, dst, a *Matrix, m int) {
	c := padeCoeffs(m)
	n := a.Rows
	mark := ws.Mark()
	defer ws.Rewind(mark)

	a2 := matrixAt(ws, n, n)
	MulInto(&a2, a, a)
	u := matrixAt(ws, n, n)
	v := matrixAt(ws, n, n)

	if m == 13 {
		a4 := matrixAt(ws, n, n)
		MulInto(&a4, &a2, &a2)
		a6 := matrixAt(ws, n, n)
		MulInto(&a6, &a4, &a2)
		// U = A·(A6·(c13·A6 + c11·A4 + c9·A2) + c7·A6 + c5·A4 + c3·A2 + c1·I)
		inner := matrixAt(ws, n, n)
		lincomb3(&inner, &a6, c[13], &a4, c[11], &a2, c[9])
		t := matrixAt(ws, n, n)
		MulInto(&t, &a6, &inner)
		addLincomb3(&t, &a6, c[7], &a4, c[5], &a2, c[3])
		addDiag(&t, c[1])
		MulInto(&u, a, &t)
		// V = A6·(c12·A6 + c10·A4 + c8·A2) + c6·A6 + c4·A4 + c2·A2 + c0·I
		lincomb3(&inner, &a6, c[12], &a4, c[10], &a2, c[8])
		MulInto(&v, &a6, &inner)
		addLincomb3(&v, &a6, c[6], &a4, c[4], &a2, c[2])
		addDiag(&v, c[0])
	} else {
		// U = A·Σ c[2k+1] A^{2k}, V = Σ c[2k] A^{2k}.
		powA := matrixAt(ws, n, n)
		for i := 0; i < n; i++ {
			powA.Data[i*n+i] = 1
		}
		powB := matrixAt(ws, n, n)
		usum := matrixAt(ws, n, n)
		pow, powNext := &powA, &powB
		for k := 0; 2*k <= m; k++ {
			if 2*k+1 <= m {
				kernel.Axpy(usum.Data, pow.Data, complex(c[2*k+1], 0))
			}
			kernel.Axpy(v.Data, pow.Data, complex(c[2*k], 0))
			if 2*(k+1) <= m {
				MulInto(powNext, pow, &a2)
				pow, powNext = powNext, pow
			}
		}
		MulInto(&u, a, &usum)
	}
	// e^A ≈ (V - U)⁻¹ (V + U): factor V-U in place and solve into dst.
	num := matrixAt(ws, n, n)
	for i := range num.Data {
		num.Data[i] = v.Data[i] + u.Data[i]
		v.Data[i] -= u.Data[i] // v becomes the denominator
	}
	piv := ws.TakeInt(n)
	if err := luFactor(&v, piv); err != nil {
		panic("linalg: Expm Padé denominator singular")
	}
	b := ws.TakeComplex(n)
	for j := 0; j < n; j++ {
		// Gather column j already row-permuted, then substitute in place.
		for i := 0; i < n; i++ {
			b[i] = num.Data[piv[i]*n+j]
		}
		luSolvePermuted(&v, b)
		for i := 0; i < n; i++ {
			dst.Data[i*n+j] = b[i]
		}
	}
}

// padeTemps is the number of n×n temporaries padeSmall takes from its
// scratch: A², A⁴, A⁶, A⁸, and the U and V sums.
const padeTemps = 6

// padeSmall is padeInto's low-order branch (m ≤ 9) with every
// temporary in the caller's scratch (padeTemps·n² entries, typically a
// stack array), bit for bit. It skips three things padeInto does, none
// of which changes a bit of the result:
//
//   - padeInto's first power is I·A², equal to A² except that a zero
//     component may carry the other sign; this path uses A² itself.
//   - padeInto adds c₁·I and c₀·I by Axpy over all n² entries; this
//     path starts the diagonal at c₁ and c₀ and the rest at +0, as
//     those Axpys leave them.
//   - padeInto scales each power by the complex c_k + 0i and adds it in
//     its own pass; this path forms each entry's U and V sums in one
//     pass, in the same order, scaling by the real c_k.
//
// For finite A those differ from padeInto's terms at most in the sign
// of a zero component. Both sums start at +0, and a sum of finite terms
// that starts at +0 never becomes −0 (x + (−x) rounds to +0), so adding
// a zero of either sign leaves it unchanged. ExpmInto sends this path
// no infinity (its column sum exceeds every θ), but can send it a NaN,
// since lowPadeOrder chooses the order from the entries that are not
// NaN; then U, and with it the result, is NaN in every entry here as
// in padeInto. The LU solve (luSolveSmall) repeats luFactor and
// luSolvePermuted operation for operation.
//
//epoc:hot
func padeSmall(dst, a, scratch []complex128, n, m int) {
	c := padeCoeffs(m)
	nn := n * n
	// pows[k-1] = A^{2k}; U and V need A², …, A^{m-1}.
	pows := [4][]complex128{scratch[:nn], scratch[nn : 2*nn], scratch[2*nn : 3*nn], scratch[3*nn : 4*nn]}
	usum, v := scratch[4*nn:5*nn], scratch[5*nn:6*nn]
	np := m / 2
	kernel.MatMul(nil, pows[0], a, a, n, n, n)
	for k := 1; k < np; k++ {
		kernel.MatMul(nil, pows[k], pows[k-1], pows[0], n, n, n)
	}
	for r := 0; r < n; r++ {
		for col := 0; col < n; col++ {
			i := r*n + col
			var us, vs complex128
			if r == col {
				us, vs = complex(c[1], 0), complex(c[0], 0)
			}
			for k := 1; k <= np; k++ {
				p := pows[k-1][i]
				us += complex(c[2*k+1]*real(p), c[2*k+1]*imag(p))
				vs += complex(c[2*k]*real(p), c[2*k]*imag(p))
			}
			usum[i], v[i] = us, vs
		}
	}
	// U = A·usum into A²'s slot; then num = V + U overwrites usum and
	// the denominator V - U overwrites V.
	u := pows[0]
	kernel.MatMul(nil, u, a, usum, n, n, n)
	num, den := usum, v
	for i := range num {
		vi, ui := v[i], u[i]
		num[i], den[i] = vi+ui, vi-ui
	}
	luSolveSmall(dst, den, num, n)
}

// lincomb3 sets dst = s1·m1 + s2·m2 + s3·m3 element-wise.
func lincomb3(dst, m1 *Matrix, s1 float64, m2 *Matrix, s2 float64, m3 *Matrix, s3 float64) {
	c1, c2, c3 := complex(s1, 0), complex(s2, 0), complex(s3, 0)
	for i := range dst.Data {
		dst.Data[i] = c1*m1.Data[i] + c2*m2.Data[i] + c3*m3.Data[i]
	}
}

// addLincomb3 adds s1·m1 + s2·m2 + s3·m3 into dst element-wise.
func addLincomb3(dst, m1 *Matrix, s1 float64, m2 *Matrix, s2 float64, m3 *Matrix, s3 float64) {
	c1, c2, c3 := complex(s1, 0), complex(s2, 0), complex(s3, 0)
	for i := range dst.Data {
		dst.Data[i] += c1*m1.Data[i] + c2*m2.Data[i] + c3*m3.Data[i]
	}
}

// addDiag adds s·I into dst.
func addDiag(dst *Matrix, s float64) {
	n := dst.Rows
	for i := 0; i < n; i++ {
		dst.Data[i*n+i] += complex(s, 0)
	}
}

// ExpIHermitianInto writes e^{i·s·H} for Hermitian H into a
// caller-owned dst via eigendecomposition, with every temporary drawn
// from ws (nil allowed). The result is unitary to eigensolver accuracy,
// which makes it the reference the Padé slice steps of GRAPE
// (qoc's Model.stepInto, through ExpmInto) are tested against. With a
// warm workspace one call performs the Jacobi sweeps, the phase scaling
// and one fused a·b† product with zero allocations.
//
//epoc:hot
func ExpIHermitianInto(ws *kernel.Workspace, dst, h *Matrix, s float64) {
	mustSquare(h)
	n := h.Rows
	mark := ws.Mark()
	defer ws.Rewind(mark)
	vals := ws.TakeFloat(n)
	vecs := matrixAt(ws, n, n)
	EigHermitianInto(ws, h, vals, &vecs)
	ExpIFromEigInto(ws, dst, vals, &vecs, s)
}

// ExpIFromEigInto reconstructs e^{i·s·H} = V·diag(e^{i·s·λ})·V† from an
// eigendecomposition: it scales V's columns by the phases into a
// workspace buffer, then runs one fused MulAdjoint — two dense passes
// instead of the rank-1 accumulation a naive reconstruction does.
//
//epoc:hot
func ExpIFromEigInto(ws *kernel.Workspace, dst *Matrix, vals []float64, vecs *Matrix, s float64) {
	n := len(vals)
	if vecs.Rows != n || vecs.Cols != n || dst.Rows != n || dst.Cols != n {
		panic("linalg: ExpIFromEigInto shape mismatch")
	}
	mark := ws.Mark()
	defer ws.Rewind(mark)
	b := matrixAt(ws, n, n)
	for k := 0; k < n; k++ {
		ph := cmplx.Exp(complex(0, s*vals[k]))
		for i, j := k, 0; j < n; i, j = i+n, j+1 {
			b.Data[i] = vecs.Data[i] * ph
		}
	}
	MulAdjointInto(dst, &b, vecs)
}
