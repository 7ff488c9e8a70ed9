package linalg

import (
	"math"
	"math/cmplx"
)

// EigHermitian diagonalizes a Hermitian matrix using the cyclic complex
// Jacobi method. It returns real eigenvalues (ascending) and a unitary
// matrix whose columns are the corresponding eigenvectors, so that
// A = V · diag(vals) · V†. ExpIHermitianInto builds on it.
//
//epoc:hot
func EigHermitian(a *Matrix) (vals []float64, vecs *Matrix) {
	mustSquare(a)
	n := a.Rows
	w := a.Clone()
	v := Identity(n)

	const maxSweeps = 100
	tol := 1e-14 * (1 + w.FrobeniusNorm())
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiagNorm(w)
		if off < tol {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				jacobiRotate(w, v, p, q)
			}
		}
	}

	raw := make([]float64, n)
	for i := 0; i < n; i++ {
		raw[i] = real(w.At(i, i))
	}
	// Sort ascending, permuting eigenvector columns to match. A stable
	// insertion sort keeps degenerate eigenvalues in sweep order
	// deterministically.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && raw[idx[j]] < raw[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	vals, vecs = make([]float64, n), NewMatrix(n, n)
	for c, src := range idx {
		vals[c] = raw[src]
		for r := 0; r < n; r++ {
			vecs.Data[r*n+c] = v.Data[r*n+src]
		}
	}
	return vals, vecs
}

// jacobiRotate zeroes w[p][q] (and w[q][p]) with a complex Givens
// rotation, accumulating the rotation into v. The three update sweeps
// run over strided/contiguous slices directly.
func jacobiRotate(w, v *Matrix, p, q int) {
	n := w.Rows
	wd, vd := w.Data, v.Data
	apq := wd[p*n+q]
	r := cmplx.Abs(apq)
	if r < 1e-300 {
		return
	}
	app := real(wd[p*n+p])
	aqq := real(wd[q*n+q])
	phase := apq / complex(r, 0) // e^{iα}

	tau := (aqq - app) / (2 * r)
	var t float64
	if tau >= 0 {
		t = 1 / (tau + math.Sqrt(1+tau*tau))
	} else {
		t = -1 / (-tau + math.Sqrt(1+tau*tau))
	}
	c := 1 / math.Sqrt(1+t*t)
	s := t * c

	cc := complex(c, 0)
	sePos := complex(s, 0) * phase        // s·e^{iα}
	seNeg := complex(s, 0) * conjc(phase) // s·e^{-iα}

	// Column update: W <- W·R with R[p][p]=c, R[p][q]=s·e^{iα},
	// R[q][p]=-s·e^{-iα}, R[q][q]=c.
	for kp, kq := p, q; kp < n*n; kp, kq = kp+n, kq+n {
		wkp, wkq := wd[kp], wd[kq]
		wd[kp] = cc*wkp - seNeg*wkq
		wd[kq] = sePos*wkp + cc*wkq
	}
	// Row update: W <- R†·W, rows p and q are contiguous.
	rp := wd[p*n : (p+1)*n]
	rq := wd[q*n : (q+1)*n]
	for k := 0; k < n; k++ {
		wpk, wqk := rp[k], rq[k]
		rp[k] = cc*wpk - sePos*wqk
		rq[k] = seNeg*wpk + cc*wqk
	}
	// Force exact symmetry of the zeroed pair and realness of the diagonal.
	rp[q] = 0
	rq[p] = 0
	rp[p] = complex(real(rp[p]), 0)
	rq[q] = complex(real(rq[q]), 0)
	// Accumulate eigenvectors: V <- V·R.
	for kp, kq := p, q; kp < n*n; kp, kq = kp+n, kq+n {
		vkp, vkq := vd[kp], vd[kq]
		vd[kp] = cc*vkp - seNeg*vkq
		vd[kq] = sePos*vkp + cc*vkq
	}
}

// conjc is a call-free complex conjugate for the rotation kernels.
func conjc(v complex128) complex128 { return complex(real(v), -imag(v)) }

func offDiagNorm(m *Matrix) float64 {
	var s float64
	n := m.Rows
	for i := 0; i < n; i++ {
		row := m.Data[i*n : (i+1)*n]
		for j, v := range row {
			if i == j {
				continue
			}
			s += real(v)*real(v) + imag(v)*imag(v)
		}
	}
	return math.Sqrt(s)
}
