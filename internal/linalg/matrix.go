// Package linalg provides dense complex linear algebra for quantum
// compilation: matrix arithmetic, Kronecker products, LU/QR
// decompositions, Hermitian eigendecomposition, matrix exponentials and
// global-phase-aware unitary distances.
//
// Matrices are stored row-major as []complex128. The package is the
// numeric substrate for the whole repository; it has no dependencies
// outside the standard library.
package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
	"strings"

	"epoc/internal/linalg/kernel"
)

// Matrix is a dense, row-major complex matrix.
type Matrix struct {
	Rows, Cols int
	Data       []complex128
}

// NewMatrix returns a zero-initialized rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// FromRows builds a matrix from a slice of rows. All rows must have the
// same length.
func FromRows(rows [][]complex128) *Matrix {
	r := len(rows)
	if r == 0 {
		return NewMatrix(0, 0)
	}
	c := len(rows[0])
	m := NewMatrix(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("linalg: ragged rows")
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// IsSquare reports whether m has equal row and column counts.
func (m *Matrix) IsSquare() bool { return m.Rows == m.Cols }

// Equal reports whether m and n have the same shape and elements within
// absolute tolerance tol.
func (m *Matrix) Equal(n *Matrix, tol float64) bool {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return false
	}
	for i := range m.Data {
		if cmplx.Abs(m.Data[i]-n.Data[i]) > tol {
			return false
		}
	}
	return true
}

// SameBits reports whether a and b, of equal length, are bitwise
// equal: the test of a cache that reuses work done at a point, where
// reuse must be exact. −0 differs from +0, and NaN differs from itself,
// so a NaN point is never reused.
func SameBits(a, b []float64) bool {
	for i := range a {
		//epoc:lint-ignore floatcmp bitwise reuse key: a tolerance would fork cached and uncached trajectories
		if a[i] != b[i] || math.Signbit(a[i]) != math.Signbit(b[i]) {
			return false
		}
	}
	return true
}

// Add returns m + n.
func (m *Matrix) Add(n *Matrix) *Matrix {
	checkSameShape(m, n)
	out := NewMatrix(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = m.Data[i] + n.Data[i]
	}
	return out
}

// Sub returns m - n.
func (m *Matrix) Sub(n *Matrix) *Matrix {
	checkSameShape(m, n)
	out := NewMatrix(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = m.Data[i] - n.Data[i]
	}
	return out
}

// Scale returns s·m.
func (m *Matrix) Scale(s complex128) *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = s * m.Data[i]
	}
	return out
}

// AddInPlace sets m = m + n and returns m.
func (m *Matrix) AddInPlace(n *Matrix) *Matrix {
	checkSameShape(m, n)
	for i := range m.Data {
		m.Data[i] += n.Data[i]
	}
	return m
}

// CopyFrom copies n's elements into m (shapes must match) and returns
// m, reusing m's storage.
func (m *Matrix) CopyFrom(n *Matrix) *Matrix {
	checkSameShape(m, n)
	copy(m.Data, n.Data)
	return m
}

// ScaleInPlace sets m = s·m and returns m.
func (m *Matrix) ScaleInPlace(s complex128) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// Mul returns the matrix product m·n. It routes through the kernel
// layer (internal/linalg/kernel): unrolled fast paths for 2×2/4×4/8×8
// and a zero-skipping streaming loop otherwise. Hot loops that must
// not allocate use MulInto instead.
func (m *Matrix) Mul(n *Matrix) *Matrix {
	if m.Cols != n.Rows {
		panic(fmt.Sprintf("linalg: Mul shape mismatch %dx%d · %dx%d", m.Rows, m.Cols, n.Rows, n.Cols))
	}
	out := NewMatrix(m.Rows, n.Cols)
	kernel.MatMul(nil, out.Data, m.Data, n.Data, m.Rows, m.Cols, n.Cols)
	return out
}

// MulInto sets dst = a·b, writing into a caller-owned dst that must
// be pre-shaped to a.Rows×b.Cols and must not alias a or b. It and
// the adjoint-fused AdjointMulInto/MulAdjointInto allocate nothing, so
// the //epoc:hot loops in qoc and densesim route through them.
func MulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: MulInto shape mismatch %dx%d = %dx%d · %dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	kernel.MatMul(nil, dst.Data, a.Data, b.Data, a.Rows, a.Cols, b.Cols)
}

// AdjointMulInto sets dst = a†·b without materializing a†. dst must be
// pre-shaped to a.Cols×b.Cols and must not alias a or b.
func AdjointMulInto(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: AdjointMulInto shape mismatch %dx%d = (%dx%d)† · %dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	kernel.AdjointMul(dst.Data, a.Data, b.Data, a.Cols, a.Rows, b.Cols)
}

// MulAdjointInto sets dst = a·b† without materializing b†. dst must be
// pre-shaped to a.Rows×b.Rows and must not alias a or b.
func MulAdjointInto(dst, a, b *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: MulAdjointInto shape mismatch %dx%d = %dx%d · (%dx%d)†",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	kernel.MulAdjoint(dst.Data, a.Data, b.Data, a.Rows, a.Cols, b.Rows)
}

// MulVec returns the matrix-vector product m·v.
func (m *Matrix) MulVec(v []complex128) []complex128 {
	if m.Cols != len(v) {
		panic("linalg: MulVec dimension mismatch")
	}
	out := make([]complex128, m.Rows)
	kernel.MulVec(out, m.Data, v, m.Rows, m.Cols)
	return out
}

// Adjoint returns the conjugate transpose m†.
//
//epoc:hot
func (m *Matrix) Adjoint() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*m.Rows+i] = cmplx.Conj(m.Data[i*m.Cols+j])
		}
	}
	return out
}

// Trace returns the sum of diagonal elements of a square matrix.
func (m *Matrix) Trace() complex128 {
	mustSquare(m)
	var t complex128
	for i := 0; i < m.Rows; i++ {
		t += m.Data[i*m.Cols+i]
	}
	return t
}

// Kron returns the Kronecker product m ⊗ n.
//
//epoc:hot
func (m *Matrix) Kron(n *Matrix) *Matrix {
	out := NewMatrix(m.Rows*n.Rows, m.Cols*n.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			a := m.Data[i*m.Cols+j]
			//epoc:lint-ignore floatcmp exact-zero sparsity fast path in the kron kernel
			if a == 0 {
				continue
			}
			for p := 0; p < n.Rows; p++ {
				dst := (i*n.Rows+p)*out.Cols + j*n.Cols
				src := p * n.Cols
				for q := 0; q < n.Cols; q++ {
					out.Data[dst+q] = a * n.Data[src+q]
				}
			}
		}
	}
	return out
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s)
}

// OneNorm returns the maximum absolute column sum, or NaN when an
// entry's magnitude is NaN.
func (m *Matrix) OneNorm() float64 {
	var mx float64
	for j := 0; j < m.Cols; j++ {
		var s float64
		for i := 0; i < m.Rows; i++ {
			s += cmplx.Abs(m.Data[i*m.Cols+j])
		}
		if math.IsNaN(s) {
			return s
		}
		mx = max(mx, s)
	}
	return mx
}

// IsUnitary reports whether m†·m is the identity within tolerance tol.
func (m *Matrix) IsUnitary(tol float64) bool {
	if !m.IsSquare() {
		return false
	}
	return m.Adjoint().Mul(m).Equal(Identity(m.Rows), tol)
}

// IsHermitian reports whether m equals m† within tolerance tol.
func (m *Matrix) IsHermitian(tol float64) bool {
	if !m.IsSquare() {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i; j < m.Cols; j++ {
			if cmplx.Abs(m.At(i, j)-cmplx.Conj(m.At(j, i))) > tol {
				return false
			}
		}
	}
	return true
}

// String renders the matrix with aligned fixed-precision entries,
// mainly for debugging and test failure messages.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		b.WriteString("[")
		for j := 0; j < m.Cols; j++ {
			v := m.At(i, j)
			fmt.Fprintf(&b, "%7.4f%+7.4fi", real(v), imag(v))
			if j != m.Cols-1 {
				b.WriteString("  ")
			}
		}
		b.WriteString("]\n")
	}
	return b.String()
}

func checkSameShape(m, n *Matrix) {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		panic(fmt.Sprintf("linalg: shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, n.Rows, n.Cols))
	}
}

func mustSquare(m *Matrix) {
	if !m.IsSquare() {
		panic(fmt.Sprintf("linalg: matrix %dx%d is not square", m.Rows, m.Cols))
	}
}
