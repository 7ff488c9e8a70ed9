package qoc

import (
	"fmt"
	"math/rand"
	"testing"

	"epoc/internal/linalg"
	"epoc/internal/linalg/kerneltest"
)

// denseTraceProduct is the gradient contraction before the control
// patterns: tr(ρ·H) over every entry of ρ, skipping its exact zeros.
func denseTraceProduct(rho, h *linalg.Matrix) complex128 {
	var s complex128
	n := rho.Rows
	for i := 0; i < n; i++ {
		for k, rv := range rho.Data[i*n : (i+1)*n] {
			if rv == 0 {
				continue
			}
			s += rv * h.Data[k*n+i]
		}
	}
	return s
}

// TestSparseContractionMatchesDense: the entries of ρ = a·b that
// rhoInto forms equal linalg.MulInto's, and each control's sparse
// trace equals the dense contraction over the whole of ρ, bit for bit,
// on every finite operand class at the unrolled dimensions and at d16,
// which gathers from the dense product.
func TestSparseContractionMatchesDense(t *testing.T) {
	for _, cls := range kerneltest.Classes {
		for nq := 1; nq <= 4; nq++ {
			m := StandardModel(nq, ModelOptions{Detuning: 0.03})
			n := m.Dim()
			t.Run(fmt.Sprintf("%s/d%d", cls.Name, n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(n)*7 + 2))
				var dense *linalg.Matrix
				if n > 8 {
					dense = linalg.NewMatrix(n, n)
				}
				for draw := 0; draw < 4; draw++ {
					a := linalg.NewMatrix(n, n)
					b := linalg.NewMatrix(n, n)
					copy(a.Data, cls.Gen(n, n, rng))
					copy(b.Data, cls.Gen(n, n, rng))
					full := linalg.NewMatrix(n, n)
					linalg.MulInto(full, a, b)
					rho := make([]complex128, len(m.touched))
					rhoInto(rho, m.touched, a, b, dense)
					for i, e := range m.touched {
						want := full.Data[int(e.row)+int(e.col)]
						if _, ok := kerneltest.BitEqual(rho[i:i+1], []complex128{want}); !ok {
							t.Fatalf("draw %d: ρ entry %d is %v, MulInto gives %v", draw, i, rho[i], want)
						}
					}
					for j, c := range m.Controls {
						got, want := traceProduct(rho, m.terms[j]), denseTraceProduct(full, c)
						if _, ok := kerneltest.BitEqual([]complex128{got}, []complex128{want}); !ok {
							t.Fatalf("draw %d control %s: sparse trace %v, dense %v", draw, m.Names[j], got, want)
						}
					}
				}
			})
		}
	}
}

// TestControlPatternCoversControls: every nonzero entry of every
// control appears once in its terms, and the touched entries of ρ are
// exactly those the terms read.
func TestControlPatternCoversControls(t *testing.T) {
	for nq := 1; nq <= 3; nq++ {
		m := StandardModel(nq, ModelOptions{})
		n := m.Dim()
		read := make([]bool, len(m.touched))
		for j, c := range m.Controls {
			nz := 0
			for _, v := range c.Data {
				if v != 0 {
					nz++
				}
			}
			if len(m.terms[j]) != nz {
				t.Fatalf("d%d %s: %d terms, %d nonzeros", n, m.Names[j], len(m.terms[j]), nz)
			}
			for _, term := range m.terms[j] {
				k, i := int(term.h)/n, int(term.h)%n
				if e := m.touched[term.rho]; int(e.row) != i*n || int(e.col) != k {
					t.Fatalf("d%d %s: term H[%d][%d] reads ρ at row offset %d col %d", n, m.Names[j], k, i, e.row, e.col)
				}
				if term.v != c.Data[term.h] {
					t.Fatalf("d%d %s: term value %v, control holds %v", n, m.Names[j], term.v, c.Data[term.h])
				}
				read[term.rho] = true
			}
		}
		for i, r := range read {
			if !r {
				t.Fatalf("d%d: touched entry %d is read by no control", n, i)
			}
		}
		t.Logf("d%d: %d of %d entries of ρ touched", n, len(m.touched), n*n)
	}
}
