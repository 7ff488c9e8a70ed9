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
	var best complex128
	var bestAbs float64
	for _, v := range u.Data {
		if ab := cmplx.Abs(v); ab > bestAbs+1e-12 {
			bestAbs = ab
			best = v
		}
	}
	if bestAbs == 0 {
		return u.Clone()
	}
	ph := cmplx.Conj(best) / complex(bestAbs, 0)
	return u.Scale(ph)
}

// Fingerprint returns a stable string key for a unitary up to global
// phase, formed by canonicalizing the phase and rounding entries. Two
// unitaries within ~1e-6 of each other (after phase alignment) usually
// share a fingerprint; collisions only cost a library re-check, never
// correctness, when callers verify with PhaseDistance.
func Fingerprint(u *Matrix) string {
	c := CanonicalPhase(u)
	buf := make([]byte, 0, len(c.Data)*20+8)
	buf = strconv.AppendInt(buf, int64(c.Rows), 10)
	buf = append(buf, 'x')
	buf = strconv.AppendInt(buf, int64(c.Cols), 10)
	buf = append(buf, ':')
	for _, v := range c.Data {
		buf = strconv.AppendFloat(buf, snapZero(real(v)), 'f', 5, 64)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, snapZero(imag(v)), 'f', 5, 64)
		buf = append(buf, ';')
	}
	return string(buf)
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
