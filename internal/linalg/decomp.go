package linalg

import (
	"errors"
	"math"
	"math/cmplx"
)

// ErrSingular is returned when a factorization or solve encounters a
// numerically singular matrix.
var ErrSingular = errors.New("linalg: matrix is singular")

// luFactor factors lu in place with partial pivoting (P·A = L·U, L
// unit lower triangular, both packed into lu), filling piv (len n)
// with the source row of each factored row. It is the allocation-free
// core of the Padé solve in ExpmInto.
//
//epoc:hot
func luFactor(lu *Matrix, piv []int) error {
	n := lu.Rows
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Find pivot row.
		p := k
		best := cmplx.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := cmplx.Abs(lu.At(i, k)); a > best {
				best = a
				p = i
			}
		}
		//epoc:lint-ignore floatcmp pivot magnitude exactly 0 means structurally singular
		if best == 0 {
			return ErrSingular
		}
		if p != k {
			swapRows(lu, p, k)
			piv[p], piv[k] = piv[k], piv[p]
		}
		pivVal := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			f := lu.At(i, k) / pivVal
			lu.Set(i, k, f)
			//epoc:lint-ignore floatcmp exact-zero sparsity fast path; elimination of a zero entry is a no-op
			if f == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.Set(i, j, lu.At(i, j)-f*lu.At(k, j))
			}
		}
	}
	return nil
}

// luSolvePermuted substitutes through a factored matrix in place: x
// must already hold the right-hand side permuted by the pivot order
// (x[i] = b[piv[i]]) and is overwritten with the solution.
//
//epoc:hot
func luSolvePermuted(lu *Matrix, x []complex128) {
	n := lu.Rows
	// Forward substitution (L is unit lower).
	for i := 1; i < n; i++ {
		var s complex128
		row := lu.Data[i*n : i*n+i]
		for j, v := range row {
			s += v * x[j]
		}
		x[i] -= s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		var s complex128
		row := lu.Data[i*n+i+1 : (i+1)*n]
		for j, v := range row {
			s += v * x[i+1+j]
		}
		x[i] = (x[i] - s) / lu.Data[i*n+i]
	}
}

// smithDiv holds the divisor-only half of Go's complex division by m
// (runtime complex128div, Smith's algorithm), so that dividing many
// numerators by one m computes the ratio and denominator once.
type smithDiv struct {
	m            complex128
	ratio, denom float64
	realMajor    bool // |real(m)| ≥ |imag(m)|
}

func newSmithDiv(m complex128) smithDiv {
	if math.Abs(real(m)) >= math.Abs(imag(m)) {
		ratio := imag(m) / real(m)
		return smithDiv{m: m, ratio: ratio, denom: real(m) + ratio*imag(m), realMajor: true}
	}
	ratio := real(m) / imag(m)
	return smithDiv{m: m, ratio: ratio, denom: imag(m) + ratio*real(m)}
}

// div returns n/m bit for bit as Go's n/m: the runtime's Smith
// quotient, and on the NaN/NaN outcome, where the runtime applies its
// C99 infinity and zero corrections, the runtime's own division.
func (d *smithDiv) div(n complex128) complex128 {
	var e, f float64
	if d.realMajor {
		e = (real(n) + imag(n)*d.ratio) / d.denom
		f = (imag(n) - real(n)*d.ratio) / d.denom
	} else {
		e = (real(n)*d.ratio + imag(n)) / d.denom
		f = (imag(n)*d.ratio - real(n)) / d.denom
	}
	if math.IsNaN(e) && math.IsNaN(f) {
		return n / d.m
	}
	return complex(e, f)
}

// absGreater reports cmplx.Abs(x) > cmplx.Abs(y), luFactor's pivot
// test, from the squared magnitudes when they settle it. In the normal
// range each square is within 2 ulps of |z|² and each hypot within a
// few ulps of |z|, so squares more than a relative 1e-12 apart order
// the hypots the same way. Near ties, and outside [1e-290, 1e290]
// (zeros, denormals, overflow, Inf and NaN), it compares the hypots.
func absGreater(x, y complex128) bool {
	sx, sy := absSq(x), absSq(y)
	if sx >= 1e-290 && sx <= 1e290 && sy >= 1e-290 && sy <= 1e290 {
		if sx > sy*(1+1e-12) {
			return true
		}
		if sx*(1+1e-12) < sy {
			return false
		}
	}
	return cmplx.Abs(x) > cmplx.Abs(y)
}

// luSolveSmall solves den·X = num into dst for n ≤ 8: luFactor on den
// in place, then luSolvePermuted on every column of num, with the same
// operations in the same order. The pivots and their Smith divisors
// live on the stack; each pivot's divisor serves both its column of
// multipliers and its row of the back substitution. The columns are
// solved together, row by row, which reorders no column's own sums.
//
//epoc:hot
func luSolveSmall(dst, den, num []complex128, n int) {
	var piv [8]int
	var divs [8]smithDiv
	for i := 0; i < n; i++ {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		p := k
		for i := k + 1; i < n; i++ {
			if absGreater(den[i*n+k], den[p*n+k]) {
				p = i
			}
		}
		// luFactor's test: the pivot's magnitude is exactly 0.
		//epoc:lint-ignore floatcmp pivot exactly 0 means structurally singular
		if den[p*n+k] == 0 {
			panic("linalg: Expm Padé denominator singular")
		}
		rowK := den[k*n : k*n+n]
		if p != k {
			rowP := den[p*n : p*n+n]
			for j := range rowK {
				rowK[j], rowP[j] = rowP[j], rowK[j]
			}
			piv[p], piv[k] = piv[k], piv[p]
		}
		divs[k] = newSmithDiv(rowK[k])
		for i := k + 1; i < n; i++ {
			rowI := den[i*n : i*n+n]
			f := divs[k].div(rowI[k])
			rowI[k] = f
			//epoc:lint-ignore floatcmp exact-zero sparsity fast path; elimination of a zero entry is a no-op
			if f == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				rowI[j] -= f * rowK[j]
			}
		}
	}
	for i := 0; i < n; i++ {
		copy(dst[i*n:i*n+n], num[piv[i]*n:piv[i]*n+n])
	}
	// Forward substitution (L is unit lower), all columns at once.
	for i := 1; i < n; i++ {
		l := den[i*n : i*n+i]
		xi := dst[i*n : i*n+n]
		for col := range xi {
			var s complex128
			for j, lv := range l {
				s += lv * dst[j*n+col]
			}
			xi[col] -= s
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		ur := den[i*n+i+1 : i*n+n]
		xi := dst[i*n : i*n+n]
		for col := range xi {
			var s complex128
			for j, uv := range ur {
				s += uv * dst[(i+1+j)*n+col]
			}
			xi[col] = divs[i].div(xi[col] - s)
		}
	}
}

// QRDecompose computes a Householder QR factorization A = Q·R with Q
// unitary and R upper triangular. A must have Rows >= Cols.
func QRDecompose(a *Matrix) (q, r *Matrix) {
	m, n := a.Rows, a.Cols
	if m < n {
		panic("linalg: QRDecompose requires rows >= cols")
	}
	r = a.Clone()
	q = Identity(m)
	v := make([]complex128, m)
	for k := 0; k < n && k < m-1; k++ {
		// Build Householder vector for column k below the diagonal.
		var normx float64
		for i := k; i < m; i++ {
			normx += absSq(r.At(i, k))
		}
		normx = math.Sqrt(normx)
		//epoc:lint-ignore floatcmp an exactly-zero column needs no Householder reflection
		if normx == 0 {
			continue
		}
		akk := r.At(k, k)
		var alpha complex128
		//epoc:lint-ignore floatcmp exact zero selects the real-alpha branch; any nonzero magnitude uses its phase
		if akk == 0 {
			alpha = complex(-normx, 0)
		} else {
			alpha = -akk / complex(cmplx.Abs(akk), 0) * complex(normx, 0)
		}
		var vnorm float64
		for i := k; i < m; i++ {
			v[i] = r.At(i, k)
		}
		v[k] -= alpha
		for i := k; i < m; i++ {
			vnorm += absSq(v[i])
		}
		//epoc:lint-ignore floatcmp guards division by the reflector norm
		if vnorm == 0 {
			continue
		}
		beta := complex(2/vnorm, 0)
		// R <- (I - beta v v†) R
		for j := k; j < n; j++ {
			var s complex128
			for i := k; i < m; i++ {
				s += cmplx.Conj(v[i]) * r.At(i, j)
			}
			s *= beta
			for i := k; i < m; i++ {
				r.Set(i, j, r.At(i, j)-v[i]*s)
			}
		}
		// Q <- Q (I - beta v v†)
		for i := 0; i < m; i++ {
			var s complex128
			for l := k; l < m; l++ {
				s += q.At(i, l) * v[l]
			}
			s *= beta
			for l := k; l < m; l++ {
				q.Set(i, l, q.At(i, l)-s*cmplx.Conj(v[l]))
			}
		}
	}
	// Zero out numerical noise below the diagonal of R.
	for i := 1; i < m; i++ {
		for j := 0; j < n && j < i; j++ {
			r.Set(i, j, 0)
		}
	}
	return q, r
}

func absSq(v complex128) float64 { return real(v)*real(v) + imag(v)*imag(v) }

func swapRows(m *Matrix, i, j int) {
	ri := m.Data[i*m.Cols : (i+1)*m.Cols]
	rj := m.Data[j*m.Cols : (j+1)*m.Cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}
