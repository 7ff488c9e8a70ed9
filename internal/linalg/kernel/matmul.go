// Package kernel is the profiled linear-algebra kernel layer beneath
// internal/linalg. It operates on raw row-major []complex128 buffers
// (no Matrix type, no in-module dependencies) and provides fully
// unrolled fast paths for the 2×2, 4×4 and 8×8 (1–3 qubit) products,
// the only sizes the pipeline forms (blocks are capped at 3 qubits),
// adjoint-fused products (a†·b, a·b†) so callers never materialize a
// conjugate transpose, and an exact-zero-skipping streaming loop for
// every other shape, which only tests and the density-matrix reference
// reach. No kernel needs scratch memory.
//
// Every kernel is deterministic: the floating-point summation order is
// a pure function of the operand shapes, never of timing or worker
// count, which is what keeps Workers:1 ≡ Workers:8 pipeline output
// byte-identical. Correctness against the naive reference is enforced
// by the differential harness in internal/linalg/kerneltest.
package kernel

// Workspace carries nothing. It stays only because perfbench's layer
// probes pass one to MatMul and to linalg.ExpIHermitianInto, and it
// goes with ROADMAP item 6 together with those unread parameters.
type Workspace struct{}

// NewWorkspace returns an empty Workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// MatMul computes dst = a·b with a m×k, b k×n, dst m×n, all row-major.
// dst must not alias a or b. ws is unread: the parameter stays because
// perfbench calls MatMul with it.
//
// Dispatch: exact 2×2/4×4/8×8 square products, every product the
// pipeline forms, take the fully unrolled fast paths; everything else
// takes the zero-skipping streaming loop. Path choice is a pure
// function of the operand shapes, and each path's floating-point
// summation order is fixed, so MatMul is bit-deterministic: the same
// operands always produce the same bytes, at any worker count.
func MatMul(ws *Workspace, dst, a, b []complex128, m, k, n int) {
	if m == k && k == n {
		switch n {
		case 2:
			mul2((*[4]complex128)(dst), (*[4]complex128)(a), (*[4]complex128)(b))
			return
		case 4:
			mul4((*[16]complex128)(dst), (*[16]complex128)(a), (*[16]complex128)(b))
			return
		case 8:
			mul8((*[64]complex128)(dst), (*[64]complex128)(a), (*[64]complex128)(b))
			return
		}
	}
	matMulStream(dst, a, b, m, k, n)
}

// matMulStream is the streaming ikj loop with an exact-zero skip on a:
// for sparse left operands (embedded qubit operators) a zero a[i][k]
// skips an entire row of b.
func matMulStream(dst, a, b []complex128, m, k, n int) {
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		drow := dst[i*n : (i+1)*n]
		for p, av := range arow {
			//epoc:lint-ignore floatcmp exact-zero sparsity fast path in the mul kernel
			if av == 0 {
				continue
			}
			brow := b[p*n : (p+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// MulVec computes dst = a·v with a m×n row-major, v length n, dst
// length m. dst must not alias v.
func MulVec(dst, a, v []complex128, m, n int) {
	for i := 0; i < m; i++ {
		var s complex128
		for j, x := range a[i*n : (i+1)*n] {
			s += x * v[j]
		}
		dst[i] = s
	}
}

// AdjointMul computes dst = a†·b with a k×m, b k×n, dst m×n: the fused
// form of Adjoint().Mul() that never materializes a†. The reduction
// runs k-outer so both operands stream row-contiguously; summation
// over k is ascending, matching the reference.
func AdjointMul(dst, a, b []complex128, m, k, n int) {
	if m == k && k == n {
		switch n {
		case 2:
			adjMul(dst, a, b, 2)
			return
		case 4:
			adjMul4((*[16]complex128)(dst), (*[16]complex128)(a), (*[16]complex128)(b))
			return
		case 8:
			adjMul8((*[64]complex128)(dst), (*[64]complex128)(a), (*[64]complex128)(b))
			return
		}
	}
	for i := range dst {
		dst[i] = 0
	}
	for p := 0; p < k; p++ {
		arow := a[p*m : (p+1)*m]
		brow := b[p*n : (p+1)*n]
		for i, av := range arow {
			//epoc:lint-ignore floatcmp exact-zero sparsity fast path in the adjoint-mul kernel
			if av == 0 {
				continue
			}
			c := conj(av)
			drow := dst[i*n : (i+1)*n]
			for j, bv := range brow {
				drow[j] += c * bv
			}
		}
	}
}

// adjMul is AdjointMul for a small square n whose whole product is
// L1 resident: the k-outer accumulation without the zero skip. n is a
// runtime argument, so the trip counts are not constant and every
// index is bounds-checked; n = 4 and 8 take the unrolled adjMul4 and
// adjMul8, which sum in the same order.
func adjMul(dst, a, b []complex128, n int) {
	for i := range dst[:n*n] {
		dst[i] = 0
	}
	for p := 0; p < n; p++ {
		arow := a[p*n : (p+1)*n]
		brow := b[p*n : (p+1)*n]
		for i := 0; i < n; i++ {
			c := conj(arow[i])
			drow := dst[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				drow[j] += c * brow[j]
			}
		}
	}
}

// MulAdjoint computes dst = a·b† with a m×k, b n×k, dst m×n: row i of
// a against conjugated row j of b, both contiguous, so no packing is
// ever needed.
func MulAdjoint(dst, a, b []complex128, m, k, n int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		drow := dst[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			drow[j] = dotcConj(arow, b[j*k:(j+1)*k])
		}
	}
}

// dotcConj returns Σ a[p]·conj(b[p]) with 4-way unrolling over
// contiguous operands. Partial sums are recombined in lane order
// (s0+s1)+(s2+s3) deterministically.
func dotcConj(a, b []complex128) complex128 {
	var s0, s1, s2, s3 complex128
	p := 0
	for ; p+4 <= len(a); p += 4 {
		s0 += a[p] * conj(b[p])
		s1 += a[p+1] * conj(b[p+1])
		s2 += a[p+2] * conj(b[p+2])
		s3 += a[p+3] * conj(b[p+3])
	}
	s := (s0 + s1) + (s2 + s3)
	for ; p < len(a); p++ {
		s += a[p] * conj(b[p])
	}
	return s
}

// Axpy adds s·x into y element-wise: y[i] += s·x[i].
func Axpy(y, x []complex128, s complex128) {
	_ = y[len(x)-1]
	for i, v := range x {
		y[i] += s * v
	}
}

// conj avoids the cmplx.Conj call in inner loops (kept local so the
// package stays dependency-free and the compiler inlines it).
func conj(v complex128) complex128 { return complex(real(v), -imag(v)) }
