package synth

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"epoc/internal/gate"
	"epoc/internal/linalg"
	"epoc/internal/opt"
)

// denseBuild is the reference evaluation of a template: every gate
// embedded into a dense 2ⁿ×2ⁿ operator and multiplied on the left
// through linalg.Mul, matching circuit.Unitary.
func denseBuild(t *template, params []float64) *linalg.Matrix {
	u := linalg.Identity(1 << t.n)
	p := 0
	apply1q := func(q int) {
		g := u3Matrix(params[p], params[p+1], params[p+2])
		p += 3
		u = linalg.EmbedOperator(g, []int{q}, t.n).Mul(u)
	}
	for q := 0; q < t.n; q++ {
		apply1q(q)
	}
	cx := gate.New(gate.CX).Matrix()
	for _, pl := range t.placements {
		u = linalg.EmbedOperator(cx, []int{pl.ctrl, pl.tgt}, t.n).Mul(u)
		apply1q(pl.ctrl)
		apply1q(pl.tgt)
	}
	return u
}

// denseDistance is the reference objective: the phase-invariant HS
// cost 1 - |tr(T(x)†·U)|/dim of the dense build.
func denseDistance(t *template, target *linalg.Matrix, params []float64) float64 {
	d := 1 - cmplx.Abs(linalg.HSInner(denseBuild(t, params), target))/float64(target.Rows)
	if d < 0 {
		return 0
	}
	return d
}

// denseGradient is the reference gradient: the textbook central
// difference of denseDistance, each side a full rebuild.
func denseGradient(t *template, target *linalg.Matrix) opt.Gradient {
	return func(x, grad []float64) {
		xx := append([]float64(nil), x...)
		for i := range x {
			orig := xx[i]
			xx[i] = orig + fdStep
			fp := denseDistance(t, target, xx)
			xx[i] = orig - fdStep
			fm := denseDistance(t, target, xx)
			xx[i] = orig
			grad[i] = (fp - fm) / (2 * fdStep)
		}
	}
}

func randomTemplate(rng *rand.Rand, n, placements int) *template {
	pairs := orderedPairs(n)
	t := &template{n: n}
	for i := 0; i < placements; i++ {
		t.placements = append(t.placements, pairs[rng.Intn(len(pairs))])
	}
	return t
}

func randomParams(rng *rand.Rand, np int) []float64 {
	x := make([]float64, np)
	for i := range x {
		x[i] = rng.Float64()*2*math.Pi - math.Pi
	}
	return x
}

// childSeed is how QSearch seeds a child node: the parent's parameters
// extended by identity U3s (six zeros) on the new layer.
func childSeed(rng *rand.Rand, t *template) []float64 {
	np := t.paramCount()
	if len(t.placements) == 0 {
		return make([]float64, np)
	}
	return append(randomParams(rng, np-6), make([]float64, 6)...)
}

func TestU3EntriesMatchGateMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		// Trial 0 is the identity U3 that QSearch's child seeds start from.
		var th, ph, la float64
		if trial > 0 {
			th, ph, la = rng.NormFloat64()*4, rng.NormFloat64()*4, rng.NormFloat64()*4
		}
		got := u3Entries(th, ph, la)
		want := gate.New(gate.U3, th, ph, la).Matrix().Data
		for i := range got {
			//epoc:lint-ignore floatcmp the evaluator's U3 must be the gate package's U3, bit for bit
			if got[i] != want[i] {
				t.Fatalf("U3(%v,%v,%v)[%d] = %v, gate.Matrix gives %v", th, ph, la, i, got[i], want[i])
			}
		}
	}
}

// TestEvaluatorMatchesDenseReferenceBitwise is the bitwise contract
// (DESIGN.md §14): over random templates on 2 and 3 qubits with 0-14
// CNOTs in both directions, at random points and at QSearch's child
// seeds, the in-place evaluator's objective and gradient equal the
// dense build and the textbook central difference exactly.
func TestEvaluatorMatchesDenseReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	templates := 0
	for _, n := range []int{2, 3} {
		target := linalg.RandomUnitary(1<<n, rng)
		// Start small so reset's growth path runs too; QSearch reuses
		// one evaluator across templates of every size the same way.
		ev := newEvaluator(target, n, 1)
		for trial := 0; trial < 120; trial++ {
			tmpl := randomTemplate(rng, n, rng.Intn(15))
			ev.reset(tmpl)
			np := tmpl.paramCount()
			gotG, wantG := make([]float64, np), make([]float64, np)
			for _, x := range [][]float64{randomParams(rng, np), childSeed(rng, tmpl)} {
				got, want := ev.objective(x), denseDistance(tmpl, target, x)
				//epoc:lint-ignore floatcmp the contract is bitwise identity with the dense build
				if got != want {
					t.Fatalf("n=%d %v: objective %v, dense %v", n, tmpl.placements, got, want)
				}
				ev.gradient(x, gotG)
				denseGradient(tmpl, target)(x, wantG)
				for i := range gotG {
					//epoc:lint-ignore floatcmp the contract is bitwise identity with the dense central difference
					if gotG[i] != wantG[i] {
						t.Fatalf("n=%d %v: grad[%d] %v, dense %v", n, tmpl.placements, i, gotG[i], wantG[i])
					}
				}
			}
			templates++
		}
	}
	if templates < 200 {
		t.Fatalf("covered %d templates, want >= 200", templates)
	}
}

// TestInstantiateTrajectoryMatchesDenseReference runs L-BFGS on both
// objective/gradient pairs from the same start: identical bits in give
// the identical trajectory out.
func TestInstantiateTrajectoryMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 8; trial++ {
		n := 2 + trial%2
		target := linalg.RandomUnitary(1<<n, rng)
		tmpl := randomTemplate(rng, n, 1+rng.Intn(4))
		ev := newEvaluator(target, n, len(tmpl.placements))
		ev.reset(tmpl)
		x0 := childSeed(rng, tmpl)
		cfg := opt.LBFGSConfig{MaxIter: 30, GradTol: 1e-10, Tol: 1e-14}
		got := opt.LBFGS(ev.objective, ev.gradient, x0, cfg)
		want := opt.LBFGS(func(x []float64) float64 { return denseDistance(tmpl, target, x) },
			denseGradient(tmpl, target), x0, cfg)
		//epoc:lint-ignore floatcmp the trajectories must be bit-identical, not merely close
		if got.F != want.F || got.Iterations != want.Iterations {
			t.Fatalf("trial %d: f=%v after %d iterations, dense f=%v after %d", trial, got.F, got.Iterations, want.F, want.Iterations)
		}
		for i := range got.X {
			//epoc:lint-ignore floatcmp the trajectories must be bit-identical, not merely close
			if got.X[i] != want.X[i] {
				t.Fatalf("trial %d: x[%d] = %v, dense %v", trial, i, got.X[i], want.X[i])
			}
		}
	}
}

func TestEvaluatorAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	target := linalg.RandomUnitary(8, rng)
	tmpl := randomTemplate(rng, 3, 6)
	ev := newEvaluator(target, 3, 6)
	ev.reset(tmpl)
	x := randomParams(rng, tmpl.paramCount())
	grad := make([]float64, len(x))
	if a := testing.AllocsPerRun(20, func() { ev.objective(x) }); a != 0 {
		t.Errorf("objective allocates %v times per call, want 0", a)
	}
	if a := testing.AllocsPerRun(20, func() { ev.gradient(x, grad) }); a != 0 {
		t.Errorf("gradient allocates %v times per call, want 0", a)
	}
}

// BenchmarkTemplateGradient compares one instantiation gradient on 3
// qubits through the dense reference (2·np full rebuilds) and through
// the evaluator (prefix-restarted in-place sweeps).
func BenchmarkTemplateGradient(b *testing.B) {
	for _, placements := range []int{4, 14} {
		rng := rand.New(rand.NewSource(14))
		target := linalg.RandomUnitary(8, rng)
		tmpl := randomTemplate(rng, 3, placements)
		x := randomParams(rng, tmpl.paramCount())
		grad := make([]float64, len(x))
		b.Run(fmt.Sprintf("dense/p%d", placements), func(b *testing.B) {
			g := denseGradient(tmpl, target)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g(x, grad)
			}
		})
		b.Run(fmt.Sprintf("evaluator/p%d", placements), func(b *testing.B) {
			ev := newEvaluator(target, 3, placements)
			ev.reset(tmpl)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev.gradient(x, grad)
			}
		})
	}
}
