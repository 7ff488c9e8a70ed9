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

// denseGate is one gate of a template as a dense 2ⁿ×2ⁿ operator: a
// U3 on qubit q whose parameters start at x[p], or, when p < 0, a CX.
type denseGate struct {
	m    *linalg.Matrix
	p, q int
}

// denseGates lists a template's gates in sweep order.
func denseGates(t *template, params []float64) []denseGate {
	var gs []denseGate
	p := 0
	add1q := func(q int) {
		gs = append(gs, denseGate{linalg.EmbedOperator(u3Matrix(params[p], params[p+1], params[p+2]), []int{q}, t.n), p, q})
		p += 3
	}
	for q := 0; q < t.n; q++ {
		add1q(q)
	}
	cx := gate.New(gate.CX).Matrix()
	for _, pl := range t.placements {
		gs = append(gs, denseGate{linalg.EmbedOperator(cx, []int{pl.ctrl, pl.tgt}, t.n), -1, pl.ctrl})
		add1q(pl.ctrl)
		add1q(pl.tgt)
	}
	return gs
}

// denseProduct multiplies gates on the left through linalg.Mul, in
// order, starting from the identity.
func denseProduct(gs []denseGate, dim int) *linalg.Matrix {
	u := linalg.Identity(dim)
	for _, g := range gs {
		u = g.m.Mul(u)
	}
	return u
}

// denseBuild is the reference evaluation of a template: every gate
// embedded into a dense 2ⁿ×2ⁿ operator and multiplied on the left
// through linalg.Mul, matching circuit.Unitary.
func denseBuild(t *template, params []float64) *linalg.Matrix {
	return denseProduct(denseGates(t, params), 1<<t.n)
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

// u3Partials returns ∂U3/∂θ, ∂U3/∂φ and ∂U3/∂λ, differentiated entry by
// entry from U3 = [[cos θ/2, -e^{iλ} sin θ/2], [e^{iφ} sin θ/2, e^{i(φ+λ)} cos θ/2]].
func u3Partials(theta, phi, lam float64) [3]*linalg.Matrix {
	c, s := complex(math.Cos(theta/2), 0), complex(math.Sin(theta/2), 0)
	eL, eP, eS := cmplx.Exp(complex(0, lam)), cmplx.Exp(complex(0, phi)), cmplx.Exp(complex(0, phi+lam))
	return [3]*linalg.Matrix{
		linalg.FromRows([][]complex128{{-s / 2, -eL * c / 2}, {eP * c / 2, -eS * s / 2}}),
		linalg.FromRows([][]complex128{{0, 0}, {1i * eP * s, 1i * eS * c}}),
		linalg.FromRows([][]complex128{{0, -1i * eL * s}, {0, 1i * eS * c}}),
	}
}

// denseGradient is the reference gradient: the exact derivative of
// denseDistance from dense products. For each U3, ∂U = A·E(∂g)·P with
// P and A the dense products of the gates before and after it, and
// ∂f = -Re(s̄·tr(∂U†·T))/(|s|·dim).
func denseGradient(t *template, target *linalg.Matrix) opt.Gradient {
	return func(x, grad []float64) {
		gs := denseGates(t, x)
		s := linalg.HSInner(denseProduct(gs, target.Rows), target)
		w := cmplx.Conj(s) / complex(cmplx.Abs(s)*float64(target.Rows), 0)
		for k, g := range gs {
			if g.p < 0 {
				continue
			}
			pre, post := denseProduct(gs[:k], target.Rows), denseProduct(gs[k+1:], target.Rows)
			for j, dg := range u3Partials(x[g.p], x[g.p+1], x[g.p+2]) {
				du := post.Mul(linalg.EmbedOperator(dg, []int{g.q}, t.n)).Mul(pre)
				grad[g.p+j] = -real(w * linalg.HSInner(du, target))
			}
		}
	}
}

// centralDiff is the central difference of f with width h.
func centralDiff(f func([]float64) float64, x []float64, h float64) []float64 {
	xx := append([]float64(nil), x...)
	grad := make([]float64, len(x))
	for i := range x {
		orig := xx[i]
		xx[i] = orig + h
		fp := f(xx)
		xx[i] = orig - h
		fm := f(xx)
		xx[i] = orig
		grad[i] = (fp - fm) / (2 * h)
	}
	return grad
}

func u3Matrix(theta, phi, lam float64) *linalg.Matrix {
	return gate.New(gate.U3, theta, phi, lam).Matrix()
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
			// Exact comparison on purpose: the evaluator's U3 must be the gate package's U3, bit for bit.
			if got[i] != want[i] {
				t.Fatalf("U3(%v,%v,%v)[%d] = %v, gate.Matrix gives %v", th, ph, la, i, got[i], want[i])
			}
		}
	}
}

// TestEvaluatorMatchesDenseReferenceBitwise is the bitwise contract
// (DESIGN.md §14): over random templates on 2 and 3 qubits with 0-14
// CNOTs in both directions, at random points and at QSearch's child
// seeds, the in-place evaluator's objective equals the dense build
// exactly.
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
			for _, x := range [][]float64{randomParams(rng, np), childSeed(rng, tmpl)} {
				got, want := ev.objective(x), denseDistance(tmpl, target, x)
				// Exact comparison on purpose: the contract is bitwise identity with the dense build.
				if got != want {
					t.Fatalf("n=%d %v: objective %v, dense %v", n, tmpl.placements, got, want)
				}
			}
			templates++
		}
	}
	if templates < 200 {
		t.Fatalf("covered %d templates, want >= 200", templates)
	}
}

// TestGradientMatchesCentralDifference checks the adjoint gradient
// against central differences of the objective (h = 1e-6, whose
// truncation and rounding errors are both near 1e-11) over random
// templates on 2 and 3 qubits with 0-14 CNOTs, at random points and at
// QSearch's child seeds.
func TestGradientMatchesCentralDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	worst := 0.0
	for _, n := range []int{2, 3} {
		target := linalg.RandomUnitary(1<<n, rng)
		ev := newEvaluator(target, n, 1)
		for trial := 0; trial < 60; trial++ {
			tmpl := randomTemplate(rng, n, trial%15)
			ev.reset(tmpl)
			np := tmpl.paramCount()
			got := make([]float64, np)
			for _, x := range [][]float64{randomParams(rng, np), childSeed(rng, tmpl)} {
				ev.gradient(x, got)
				want := centralDiff(ev.objective, x, 1e-6)
				for i := range got {
					if d := math.Abs(got[i] - want[i]); d > 1e-7 {
						t.Fatalf("n=%d %v: grad[%d] %v, central difference %v", n, tmpl.placements, i, got[i], want[i])
					} else if d > worst {
						worst = d
					}
				}
			}
		}
	}
	t.Logf("worst |adjoint - central difference| = %.2g", worst)
}

// TestInstantiateTrajectoryMatchesDenseReference runs L-BFGS from the
// same start on the evaluator and on the dense build with its exact
// dense-product gradient. The two gradients agree to rounding, so the
// runs must take the same number of iterations to the same point.
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
		if got.Iterations != want.Iterations || math.Abs(got.F-want.F) > 1e-14 {
			t.Fatalf("trial %d: f=%v after %d iterations, dense f=%v after %d", trial, got.F, got.Iterations, want.F, want.Iterations)
		}
		for i := range got.X {
			if math.Abs(got.X[i]-want.X[i]) > 1e-10 {
				t.Fatalf("trial %d: x[%d] = %v, dense %v", trial, i, got.X[i], want.X[i])
			}
		}
	}
}

// freshEval evaluates tmpl at x on a new evaluator, whose slots are
// empty, so both calls run a full forward sweep.
func freshEval(target *linalg.Matrix, tmpl *template, x []float64) (float64, []float64) {
	ev := newEvaluator(target, tmpl.n, len(tmpl.placements))
	ev.reset(tmpl)
	grad := make([]float64, len(x))
	ev.gradient(x, grad)
	fresh := newEvaluator(target, tmpl.n, len(tmpl.placements))
	fresh.reset(tmpl)
	return fresh.objective(x), grad
}

// holds reports whether one of ev's slots holds x.
func (e *evaluator) holds(x []float64) bool {
	for i := range e.slots {
		if e.slots[i].valid && linalg.SameBits(e.slots[i].x, x) {
			return true
		}
	}
	return false
}

// TestEvaluatorSlotsMatchFreshBitwise replays L-BFGS's access pattern
// where the accepted point is the second-to-last trial: g(x0), f(x0),
// f(t1) accepted by Armijo, f(t2) the failed greedy expansion, then
// g(t1). The calls a slot serves must equal a fresh evaluator's bit
// for bit, and f(x0) and g(t1) must be served from a slot.
func TestEvaluatorSlotsMatchFreshBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 40; trial++ {
		n := 2 + trial%2
		target := linalg.RandomUnitary(1<<n, rng)
		tmpl := randomTemplate(rng, n, rng.Intn(8))
		ev := newEvaluator(target, n, 1)
		ev.reset(tmpl)
		np := tmpl.paramCount()
		x0, t1, t2 := childSeed(rng, tmpl), randomParams(rng, np), randomParams(rng, np)
		grad := make([]float64, np)

		ev.gradient(x0, grad)
		if !ev.holds(x0) {
			t.Fatalf("trial %d: no slot holds the gradient's point", trial)
		}
		wantF, wantG := freshEval(target, tmpl, x0)
		if f := ev.objective(x0); f != wantF || !linalg.SameBits(grad, wantG) {
			t.Fatalf("trial %d: at x0 f=%v grad=%v, fresh f=%v grad=%v", trial, f, grad, wantF, wantG)
		}
		ev.objective(t1)
		ev.objective(t2)
		if !ev.holds(t1) {
			t.Fatalf("trial %d: the second-to-last trial was evicted", trial)
		}
		ev.gradient(t1, grad)
		wantF, wantG = freshEval(target, tmpl, t1)
		if f := ev.objective(t1); f != wantF || !linalg.SameBits(grad, wantG) {
			t.Fatalf("trial %d: at t1 f=%v grad=%v, fresh f=%v grad=%v", trial, f, grad, wantF, wantG)
		}
	}
}

// TestLBFGSGradientsHitSlots runs L-BFGS on the evaluator and checks
// that every gradient after the first is taken at a point a slot holds,
// and that each value and gradient equals a fresh evaluator's bitwise.
func TestLBFGSGradientsHitSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 12; trial++ {
		n := 2 + trial%2
		target := linalg.RandomUnitary(1<<n, rng)
		tmpl := randomTemplate(rng, n, 1+rng.Intn(5))
		ev := newEvaluator(target, n, len(tmpl.placements))
		ev.reset(tmpl)
		calls, misses := 0, 0
		f := func(x []float64) float64 {
			got := ev.objective(x)
			if want, _ := freshEval(target, tmpl, x); got != want {
				t.Fatalf("trial %d: objective %v, fresh %v", trial, got, want)
			}
			return got
		}
		g := func(x, grad []float64) {
			if calls++; !ev.holds(x) {
				misses++
			}
			ev.gradient(x, grad)
			if _, want := freshEval(target, tmpl, x); !linalg.SameBits(grad, want) {
				t.Fatalf("trial %d: gradient %v, fresh %v", trial, grad, want)
			}
		}
		opt.LBFGS(f, g, childSeed(rng, tmpl), opt.LBFGSConfig{MaxIter: 40, GradTol: 1e-10, Tol: 1e-14})
		if misses != 1 {
			t.Fatalf("trial %d: %d of %d gradients ran a forward sweep, want only the first", trial, misses, calls)
		}
	}
}

// TestEvaluatorKeepsLastTwoPoints: the slots hold the two most
// recently used points, so a miss after a hit evicts the point the hit
// did not touch.
func TestEvaluatorKeepsLastTwoPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	tmpl := randomTemplate(rng, 2, 2)
	ev := newEvaluator(linalg.RandomUnitary(4, rng), 2, 2)
	ev.reset(tmpl)
	a, b, c := randomParams(rng, tmpl.paramCount()), randomParams(rng, tmpl.paramCount()), randomParams(rng, tmpl.paramCount())
	ev.objective(a)
	ev.objective(b)
	ev.objective(a)
	ev.objective(c)
	if !ev.holds(a) || !ev.holds(c) || ev.holds(b) {
		t.Fatalf("after a, b, a, c the slots hold a=%v b=%v c=%v, want a and c", ev.holds(a), ev.holds(b), ev.holds(c))
	}
}

// TestEvaluatorResetInvalidatesSlots resets to a different template
// with the same parameter count: the same x must not reuse the old
// template's sweep.
func TestEvaluatorResetInvalidatesSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	target := linalg.RandomUnitary(8, rng)
	a := &template{n: 3, placements: []placement{{0, 1}, {1, 2}}}
	b := &template{n: 3, placements: []placement{{2, 1}, {1, 0}}}
	x := randomParams(rng, a.paramCount())
	ev := newEvaluator(target, 3, 2)
	ev.reset(a)
	fa := ev.objective(x)
	ev.reset(b)
	if ev.holds(x) {
		t.Fatal("a slot survived reset")
	}
	fb := ev.objective(x)
	if want, _ := freshEval(target, b, x); fb != want || fb == fa {
		t.Fatalf("after reset f=%v, fresh %v, old template %v", fb, want, fa)
	}
	grad := make([]float64, len(x))
	ev.reset(a)
	ev.gradient(x, grad)
	if _, want := freshEval(target, a, x); !linalg.SameBits(grad, want) {
		t.Fatalf("after reset gradient %v, fresh %v", grad, want)
	}
}

// TestEvaluatorAllocationFree cycles three points, so every call misses
// both slots and measures a full forward sweep.
func TestEvaluatorAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	target := linalg.RandomUnitary(8, rng)
	tmpl := randomTemplate(rng, 3, 6)
	ev := newEvaluator(target, 3, 6)
	ev.reset(tmpl)
	xs := [][]float64{randomParams(rng, tmpl.paramCount()), randomParams(rng, tmpl.paramCount()), randomParams(rng, tmpl.paramCount())}
	grad := make([]float64, len(xs[0]))
	i := 0
	if a := testing.AllocsPerRun(20, func() {
		if ev.holds(xs[i%3]) {
			t.Fatal("objective point held by a slot")
		}
		ev.objective(xs[i%3])
		i++
	}); a != 0 {
		t.Errorf("objective allocates %v times per call, want 0", a)
	}
	if a := testing.AllocsPerRun(20, func() {
		if ev.holds(xs[i%3]) {
			t.Fatal("gradient point held by a slot")
		}
		ev.gradient(xs[i%3], grad)
		i++
	}); a != 0 {
		t.Errorf("gradient allocates %v times per call, want 0", a)
	}
}

// BenchmarkTemplateGradient compares one instantiation gradient on 3
// qubits through the finite-difference reference (a central difference
// of the evaluator's objective: 2·np full sweeps) and through the
// evaluator's adjoint sweep, forward and backward: the adjoint run
// cycles three points, so no slot holds the next one.
func BenchmarkTemplateGradient(b *testing.B) {
	for _, placements := range []int{4, 14} {
		rng := rand.New(rand.NewSource(14))
		target := linalg.RandomUnitary(8, rng)
		tmpl := randomTemplate(rng, 3, placements)
		x := randomParams(rng, tmpl.paramCount())
		xs := [][]float64{x, randomParams(rng, len(x)), randomParams(rng, len(x))}
		grad := make([]float64, len(x))
		ev := newEvaluator(target, 3, placements)
		ev.reset(tmpl)
		b.Run(fmt.Sprintf("finite-difference/p%d", placements), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				centralDiff(ev.objective, x, 1e-7)
			}
		})
		b.Run(fmt.Sprintf("adjoint/p%d", placements), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev.gradient(xs[i%3], grad)
			}
		})
	}
}

// BenchmarkInstantiate is one template.instantiate on a 3q target: the
// product of a 4-CNOT template at a random point, fitted from the
// child seed QSearch would give that template, with QSearch's L-BFGS
// budget.
func BenchmarkInstantiate(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	tmpl := randomTemplate(rng, 3, 4)
	target := denseBuild(tmpl, randomParams(rng, tmpl.paramCount()))
	seed := childSeed(rng, tmpl)
	ev := newEvaluator(target, 3, len(tmpl.placements))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tmpl.instantiate(ev, [][]float64{seed}, newRestartDraws(22), 150)
	}
}
