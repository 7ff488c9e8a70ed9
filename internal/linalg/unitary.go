package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"strconv"
)

// RandomUnitary returns an n×n Haar-distributed random unitary matrix,
// generated by QR-factorizing a complex Ginibre matrix and fixing the
// phases of R's diagonal (Mezzadri 2007).
func RandomUnitary(n int, rng *rand.Rand) *Matrix {
	g := NewMatrix(n, n)
	for i := range g.Data {
		g.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	q, r := QRDecompose(g)
	// Multiply column j of Q by phase(R[j][j]) to make the distribution Haar.
	for j := 0; j < n; j++ {
		d := r.At(j, j)
		ab := cmplx.Abs(d)
		//epoc:lint-ignore floatcmp guards division by |r_jj| when the diagonal is exactly zero
		if ab == 0 {
			continue
		}
		ph := d / complex(ab, 0)
		for i := 0; i < n; i++ {
			q.Set(i, j, q.At(i, j)*ph)
		}
	}
	return q
}

// RandomHermitian returns an n×n random Hermitian matrix with Gaussian
// entries (GUE-like, unnormalized).
func RandomHermitian(n int, rng *rand.Rand) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, complex(rng.NormFloat64(), 0))
		for j := i + 1; j < n; j++ {
			v := complex(rng.NormFloat64(), rng.NormFloat64())
			m.Set(i, j, v)
			m.Set(j, i, cmplx.Conj(v))
		}
	}
	return m
}

// HSInner returns the Hilbert-Schmidt inner product tr(A†·B).
func HSInner(a, b *Matrix) complex128 {
	checkSameShape(a, b)
	var s complex128
	for i := range a.Data {
		s += cmplx.Conj(a.Data[i]) * b.Data[i]
	}
	return s
}

// PhaseDistance returns a global-phase-invariant distance between two
// unitaries of dimension n: d = sqrt(1 - |tr(A†B)|/n), which is 0 iff
// A = e^{iφ}·B and at most 1.
func PhaseDistance(a, b *Matrix) float64 {
	n := float64(a.Rows)
	d := 1 - cmplx.Abs(HSInner(a, b))/n
	if d < 0 {
		d = 0
	}
	return math.Sqrt(d)
}

// FrobeniusDistance returns ‖A - B‖_F without phase alignment.
func FrobeniusDistance(a, b *Matrix) float64 {
	return a.Sub(b).FrobeniusNorm()
}

// CanonicalPhase returns U scaled by a global phase so that its first
// element of largest magnitude is real and positive. Two unitaries that
// are equal up to global phase canonicalize to (numerically) the same
// matrix, which makes the result usable as a lookup key.
func CanonicalPhase(u *Matrix) *Matrix {
	ph, ok := canonicalPhase(u)
	if !ok {
		return u.Clone()
	}
	return u.Scale(ph)
}

// canonicalPhase returns the unit phase CanonicalPhase scales u by, or
// false when u is zero and is left as it is.
func canonicalPhase(u *Matrix) (complex128, bool) {
	var best complex128
	var bestAbs float64
	for _, v := range u.Data {
		if ab := cmplx.Abs(v); ab > bestAbs+1e-12 {
			bestAbs = ab
			best = v
		}
	}
	if bestAbs == 0 {
		return 0, false
	}
	return cmplx.Conj(best) / complex(bestAbs, 0), true
}

// Fingerprint returns a stable string key for a unitary up to global
// phase, formed by canonicalizing the phase and rounding entries. Two
// unitaries within ~1e-6 of each other (after phase alignment) usually
// share a fingerprint; collisions only cost a library re-check, never
// correctness, when callers verify with PhaseDistance. The bytes are
// those of formatting CanonicalPhase(u)'s entries with strconv's 'f'
// and 5 decimals, which library export, store harvest and warm-start
// order sort by; the phase is applied entry by entry, without the copy.
func Fingerprint(u *Matrix) string {
	ph, scale := canonicalPhase(u)
	buf := make([]byte, 0, len(u.Data)*20+8)
	buf = strconv.AppendInt(buf, int64(u.Rows), 10)
	buf = append(buf, 'x')
	buf = strconv.AppendInt(buf, int64(u.Cols), 10)
	buf = append(buf, ':')
	for _, v := range u.Data {
		if scale {
			v = ph * v
		}
		buf = AppendFixed5(buf, snapZero(real(v)))
		buf = append(buf, ',')
		buf = AppendFixed5(buf, snapZero(imag(v)))
		buf = append(buf, ';')
	}
	return string(buf)
}

// AppendFixed5 appends x with five decimals: the bytes of
// strconv.AppendFloat(dst, x, 'f', 5, 64), which fmt's "%.5f" also
// prints, without strconv's arbitrary-precision path for |x| < 2e4.
//
// strconv rounds the exact binary value of |x|·1e5 to an integer, half
// to even. p = fl(|x|·1e5) misses that product by e = FMA(|x|, 1e5, -p)
// exactly, with |e| ≤ ulp(p)/2. Below 2e9, ulp(p) ≤ 2^-22, and both the
// fraction r = p - ⌊p⌋ and 1/2 are multiples of it, so r ≠ 1/2 puts
// p + e on the same side of the midpoint as p. At r = 1/2 the sign of e
// decides, and e = 0 is an exact tie (|x| an odd multiple of 1/64 below
// 2e4, such as 0.015625 → "0.01562"). The sign comes from x's sign bit,
// so a negative x that rounds to zero prints "-0.00000" as strconv does.
func AppendFixed5(dst []byte, x float64) []byte {
	ax := math.Abs(x)
	if !(ax < 2e4) {
		return strconv.AppendFloat(dst, x, 'f', 5, 64)
	}
	p := ax * 1e5
	e := math.FMA(ax, 1e5, -p)
	fl := math.Floor(p)
	n := uint64(fl)
	switch r := p - fl; {
	case r > 0.5:
		n++
	case r < 0.5:
	case e > 0:
		n++
	case e < 0:
	default:
		n += n & 1
	}
	if math.Signbit(x) {
		dst = append(dst, '-')
	}
	dst = strconv.AppendUint(dst, n/100000, 10)
	f := n % 100000
	return append(dst, '.', byte('0'+f/10000), byte('0'+f/1000%10), byte('0'+f/100%10), byte('0'+f/10%10), byte('0'+f%10))
}

func snapZero(x float64) float64 {
	if math.Abs(x) < 5e-6 {
		return 0
	}
	return x
}

// EmbedOperator lifts an operator acting on the listed target qubits to
// the full 2^n-dimensional space. Qubit 0 is the least-significant bit
// of a basis-state index; targets[0] corresponds to the least-significant
// bit of the small operator's index.
func EmbedOperator(op *Matrix, targets []int, nQubits int) *Matrix {
	k := len(targets)
	if op.Rows != 1<<k || op.Cols != 1<<k {
		panic(fmt.Sprintf("linalg: operator is %dx%d but %d targets given", op.Rows, op.Cols, k))
	}
	seen := map[int]bool{}
	for _, t := range targets {
		if t < 0 || t >= nQubits || seen[t] {
			panic(fmt.Sprintf("linalg: invalid target list %v for %d qubits", targets, nQubits))
		}
		seen[t] = true
	}
	dim := 1 << nQubits
	out := NewMatrix(dim, dim)
	for col := 0; col < dim; col++ {
		// Extract the sub-index formed by the target bits of col.
		sub := 0
		for bit, t := range targets {
			if col&(1<<t) != 0 {
				sub |= 1 << bit
			}
		}
		base := col
		for _, t := range targets {
			base &^= 1 << t
		}
		for row := 0; row < op.Rows; row++ {
			v := op.At(row, sub)
			//epoc:lint-ignore floatcmp exact-zero sparsity fast path in the apply kernel
			if v == 0 {
				continue
			}
			outRow := base
			for bit, t := range targets {
				if row&(1<<bit) != 0 {
					outRow |= 1 << t
				}
			}
			out.Set(outRow, col, v)
		}
	}
	return out
}
