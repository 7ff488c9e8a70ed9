package qoc

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"epoc/internal/linalg"
	"epoc/internal/linalg/kernel"
	"epoc/internal/linalg/kerneltest"
)

// theta13 is the 1-norm above which linalg.ExpmInto scales and squares
// (Higham 2005, the order-13 Padé bound).
const theta13 = 5.371920351148152

// stepSchedules returns the amplitude vectors the step accuracy test
// exercises on m: uniform draws inside the amplitude bounds, plus every
// ±MaxAmp sign pattern, which include the slices of largest norm.
func stepSchedules(m *Model, draws int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	nc := len(m.Controls)
	var out [][]float64
	for d := 0; d < draws; d++ {
		u := make([]float64, nc)
		for j := range u {
			u[j] = (rng.Float64()*2 - 1) * m.MaxAmp[j]
		}
		out = append(out, u)
	}
	for mask := 0; mask < 1<<nc; mask++ {
		u := make([]float64, nc)
		for j := range u {
			u[j] = m.MaxAmp[j]
			if mask&(1<<j) != 0 {
				u[j] = -u[j]
			}
		}
		out = append(out, u)
	}
	return out
}

// TestStepMatchesEigenExponential checks the Padé slice step against
// the eigendecomposition exponential e^{-i·H·Dt} at 1e-12 per entry,
// and its unitarity at 1e-12, on the 1–3 qubit standard models and on
// a 16 ns-slot 3q model whose largest slices take ExpmInto's
// scaling-and-squaring branch.
func TestStepMatchesEigenExponential(t *testing.T) {
	const tol = 1e-12
	models := []struct {
		name   string
		m      *Model
		scaled bool // the largest slices must take the scaling branch
	}{
		{"1q", StandardModel(1, ModelOptions{}), false},
		{"2q", StandardModel(2, ModelOptions{}), false},
		{"3q", StandardModel(3, ModelOptions{}), false},
		{"3q-dt16", StandardModel(3, ModelOptions{Dt: 16}), true},
	}
	ws := kernel.NewWorkspace()
	for mi, tc := range models {
		m := tc.m
		dim := m.Dim()
		h := linalg.NewMatrix(dim, dim)
		ham := linalg.NewMatrix(dim, dim)
		got := linalg.NewMatrix(dim, dim)
		want := linalg.NewMatrix(dim, dim)
		gram := linalg.NewMatrix(dim, dim)
		maxNorm := 0.0
		for si, u := range stepSchedules(m, 64, int64(mi+1)) {
			m.slotHamiltonianInto(h, u)
			maxNorm = math.Max(maxNorm, m.Dt*h.OneNorm())
			linalg.ExpIHermitianInto(ws, want, h, -m.Dt)
			m.stepInto(ws, got, ham, u)

			if d := kerneltest.MaxDiff(got.Data, want.Data); d > tol {
				t.Fatalf("%s schedule %d: step differs from e^{-iHDt} by %.3g (max entry)", tc.name, si, d)
			}
			linalg.AdjointMulInto(gram, got, got)
			for i := 0; i < dim; i++ {
				for j := 0; j < dim; j++ {
					id := complex128(0)
					if i == j {
						id = 1
					}
					if d := cmplx.Abs(gram.At(i, j) - id); d > tol {
						t.Fatalf("%s schedule %d: |(U†U − I)[%d][%d]| = %.3g", tc.name, si, i, j, d)
					}
				}
			}
		}
		if tc.scaled && maxNorm <= theta13 {
			t.Fatalf("%s: largest ‖Dt·H‖₁ = %.3g never reaches the scaling branch (θ13 = %.4g)", tc.name, maxNorm, theta13)
		}
		t.Logf("%s: largest ‖Dt·H‖₁ = %.3g", tc.name, maxNorm)
	}
}

// BenchmarkKernelGrapeStep times one GRAPE slice step, Hamiltonian
// assembly included, on the standard 1–3 qubit models: the Padé step
// the optimizer runs (Model.stepInto) against the Jacobi
// eigendecomposition exponential it replaced (ExpIHermitianInto).
func BenchmarkKernelGrapeStep(b *testing.B) {
	for n := 1; n <= 3; n++ {
		m := StandardModel(n, ModelOptions{})
		dim := m.Dim()
		u := randSchedule(m, 1, int64(n))[0]
		ham := linalg.NewMatrix(dim, dim)
		dst := linalg.NewMatrix(dim, dim)
		ws := kernel.NewWorkspace()
		b.Run(fmt.Sprintf("d%d/pade", dim), func(b *testing.B) {
			m.stepInto(ws, dst, ham, u) // warm the arena
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.stepInto(ws, dst, ham, u)
			}
		})
		b.Run(fmt.Sprintf("d%d/jacobi", dim), func(b *testing.B) {
			m.slotHamiltonianInto(ham, u)
			linalg.ExpIHermitianInto(ws, dst, ham, -m.Dt) // warm the arena
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.slotHamiltonianInto(ham, u)
				linalg.ExpIHermitianInto(ws, dst, ham, -m.Dt)
			}
		})
	}
}

// BenchmarkKernelGrapeIter times one full ascent iteration: the cached
// forward propagation, the gradient and the Adam step, on the standard
// 1–3 qubit models toward a Haar-random target. Every 200 iterations
// (the pipeline's GRAPE budget) the ascent restarts from its initial
// schedule, so the timed mix stays that of one probe.
func BenchmarkKernelGrapeIter(b *testing.B) {
	for _, c := range []struct{ n, slots int }{{1, 16}, {2, 48}, {3, 128}} {
		m := StandardModel(c.n, ModelOptions{})
		slots := c.slots
		target := linalg.RandomUnitary(m.Dim(), rand.New(rand.NewSource(int64(c.n))))
		init := randSchedule(m, slots, int64(c.n))
		b.Run(fmt.Sprintf("d%d", m.Dim()), func(b *testing.B) {
			a := newAscent(m, target, makeGrid(slots, len(m.Controls)))
			copyAmps(a.amps, init)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				iter := i % 200
				if iter == 0 {
					copyAmps(a.amps, init)
					for k := range a.mAdam {
						clear(a.mAdam[k])
						clear(a.vAdam[k])
					}
				}
				a.step(iter, a.evaluate())
			}
		})
	}
}
