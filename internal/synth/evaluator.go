package synth

import (
	"math"
	"math/cmplx"

	"epoc/internal/linalg"
)

// fdStep is the central-difference width of the instantiation
// gradient.
const fdStep = 1e-7

// sweepOp is one gate of a template's forward sweep: a U3 on qubit a
// whose parameters start at x[p], or, when p < 0, a CX with control a
// and target b.
type sweepOp struct{ a, b, p int }

// evaluator computes the instantiation objective of one target (the
// phase-invariant Hilbert-Schmidt cost 1 - |tr(T(x)†·U)|/dim) and its
// central-difference gradient, for whichever template it was last
// reset to. Gates act directly on the rows of one preallocated running
// product instead of being embedded into dense operators, and the
// gradient restarts each perturbed sweep from the cached prefix product
// of the gates before the perturbed one. Both are bit-identical to
// evaluating the dense product EmbedOperator(g_k)·…·EmbedOperator(g_0)
// through linalg.Mul and differencing full rebuilds (DESIGN.md §14), so
// L-BFGS follows exactly the trajectory the dense evaluation gives.
//
// An evaluator owns its buffers and is not safe for concurrent use; a
// QSearch builds one and reuses it for every node it instantiates.
type evaluator struct {
	dim    int
	target []complex128
	ops    []sweepOp
	// prefix holds len(ops)+1 dim×dim products, row-major:
	// prefix[k·dim²:] is the product of ops[:k] at the gradient point.
	prefix []complex128
	work   []complex128    // running product of one sweep
	gates  [][4]complex128 // U3 entries per op at the gradient point
	trig   []u3Trig        // the factors each op's gates entry is built from
}

// newEvaluator returns an evaluator for target on n qubits with buffers
// sized for templates of up to maxPlacements CNOTs; larger templates
// grow them on reset.
func newEvaluator(target *linalg.Matrix, n, maxPlacements int) *evaluator {
	dim := 1 << n
	e := &evaluator{dim: dim, target: target.Data, work: make([]complex128, dim*dim)}
	e.grow(n + 3*maxPlacements)
	return e
}

func (e *evaluator) grow(nops int) {
	if cap(e.ops) < nops {
		e.ops = make([]sweepOp, 0, nops)
		e.gates = make([][4]complex128, nops)
		e.trig = make([]u3Trig, nops)
		e.prefix = make([]complex128, (nops+1)*e.dim*e.dim)
	}
}

// reset points the evaluator at template t. The sweep order matches
// template.toCircuit: a U3 on every qubit, then per placement a CX and
// U3s on its control and target.
func (e *evaluator) reset(t *template) {
	e.grow(t.n + 3*len(t.placements))
	e.ops = e.ops[:0]
	p := 0
	for q := 0; q < t.n; q++ {
		e.ops = append(e.ops, sweepOp{a: q, p: p})
		p += 3
	}
	for _, pl := range t.placements {
		e.ops = append(e.ops,
			sweepOp{a: pl.ctrl, b: pl.tgt, p: -1},
			sweepOp{a: pl.ctrl, p: p},
			sweepOp{a: pl.tgt, p: p + 3})
		p += 6
	}
}

// objective is the HS cost of the template at x: one forward sweep
// from the identity.
//
//epoc:hot
func (e *evaluator) objective(x []float64) float64 {
	setIdentity(e.work, e.dim)
	for _, op := range e.ops {
		if op.p < 0 {
			applyCX(e.work, e.dim, op.a, op.b)
			continue
		}
		g := u3Entries(x[op.p], x[op.p+1], x[op.p+2])
		applyU3(e.work, e.dim, op.a, &g)
	}
	return e.distance(e.work)
}

// gradient fills grad with the central difference of the objective at
// x: for every parameter, (f(x+h·eᵢ) - f(x-h·eᵢ)) / (2h). Each
// perturbed sweep starts from the product of the gates before the
// perturbed one, computed once per call in a forward sweep, and
// recomputes only the trig factors the perturbed parameter enters.
//
//epoc:hot
func (e *evaluator) gradient(x, grad []float64) {
	dd := e.dim * e.dim
	setIdentity(e.prefix[:dd], e.dim)
	for k, op := range e.ops {
		next := e.prefix[(k+1)*dd : (k+2)*dd]
		copy(next, e.prefix[k*dd:(k+1)*dd])
		if op.p < 0 {
			applyCX(next, e.dim, op.a, op.b)
			continue
		}
		e.trig[k] = newU3Trig(x[op.p], x[op.p+1], x[op.p+2])
		e.gates[k] = e.trig[k].entries()
		applyU3(next, e.dim, op.a, &e.gates[k])
	}
	for k, op := range e.ops {
		if op.p < 0 {
			continue
		}
		v := x[op.p : op.p+3]
		for j := range v {
			fp := e.sweepFrom(k, e.trig[k].step(v, j, fdStep))
			fm := e.sweepFrom(k, e.trig[k].step(v, j, -fdStep))
			grad[op.p+j] = (fp - fm) / (2 * fdStep)
		}
	}
}

// sweepFrom is the objective with op k's U3 replaced by g and every
// other gate at the gradient point: it restarts from prefix k, whose
// bits are exactly those the full sweep reaches there.
//
//epoc:hot
func (e *evaluator) sweepFrom(k int, g [4]complex128) float64 {
	dd := e.dim * e.dim
	copy(e.work, e.prefix[k*dd:(k+1)*dd])
	applyU3(e.work, e.dim, e.ops[k].a, &g)
	for i := k + 1; i < len(e.ops); i++ {
		op := e.ops[i]
		if op.p < 0 {
			applyCX(e.work, e.dim, op.a, op.b)
			continue
		}
		applyU3(e.work, e.dim, op.a, &e.gates[i])
	}
	return e.distance(e.work)
}

// distance is 1 - |tr(u†·target)|/dim, summed in linalg.HSInner's
// order.
func (e *evaluator) distance(u []complex128) float64 {
	var s complex128
	for i, v := range u {
		s += cmplx.Conj(v) * e.target[i]
	}
	d := 1 - cmplx.Abs(s)/float64(e.dim)
	if d < 0 {
		return 0
	}
	return d
}

// u3Entries returns U3(θ,φ,λ) row-major, computed exactly as
// gate.New(gate.U3, θ, φ, λ).Matrix() computes it.
func u3Entries(theta, phi, lam float64) [4]complex128 {
	return newU3Trig(theta, phi, lam).entries()
}

// u3Trig holds the factors U3(θ,φ,λ) is built from: cos and sin of θ/2,
// and e^{iφ}, e^{iλ} and e^{i(φ+λ)}.
type u3Trig struct {
	c, s             complex128
	ePhi, eLam, eSum complex128
}

func newU3Trig(theta, phi, lam float64) u3Trig {
	return u3Trig{
		c:    complex(math.Cos(theta/2), 0),
		s:    complex(math.Sin(theta/2), 0),
		ePhi: expi(phi), eLam: expi(lam), eSum: expi(phi + lam),
	}
}

// expi is cmplx.Exp(complex(0, x)) bit for bit: that computes
// complex(r·cos x, r·sin x) with r = math.Exp(0), which is exactly 1.
func expi(x float64) complex128 {
	s, c := math.Sincos(x)
	return complex(c, s)
}

// entries multiplies the factors out exactly as gate.u3Matrix does.
func (t u3Trig) entries() [4]complex128 {
	return [4]complex128{t.c, -t.s * t.eLam, t.s * t.ePhi, t.c * t.eSum}
}

// step returns the entries at x = (θ,φ,λ) with x[j] moved by h, where
// t holds the factors at x: a θ step keeps the three exponentials, a φ
// or λ step keeps cos, sin and the other parameter's exponential.
func (t u3Trig) step(x []float64, j int, h float64) [4]complex128 {
	theta, phi, lam := x[0], x[1], x[2]
	switch j {
	case 0:
		theta += h
		t.c, t.s = complex(math.Cos(theta/2), 0), complex(math.Sin(theta/2), 0)
	case 1:
		phi += h
		t.ePhi, t.eSum = expi(phi), expi(phi+lam)
	default:
		lam += h
		t.eLam, t.eSum = expi(lam), expi(phi+lam)
	}
	return t.entries()
}

func setIdentity(u []complex128, dim int) {
	for i := range u {
		u[i] = 0
	}
	for i := 0; i < dim; i++ {
		u[i*dim+i] = 1
	}
}

// applyU3 left-multiplies the dim×dim row-major product u by the 2×2
// gate g on qubit q, in place. Rows r0 (bit q clear) and r1 = r0|bit
// mix as r0' = g00·r0 + g01·r1 and r1' = g10·r0 + g11·r1 — the two
// nonzero terms of the embedded operator's rows, in the ascending
// column order linalg.Mul sums them in.
//
//epoc:hot
func applyU3(u []complex128, dim, q int, g *[4]complex128) {
	g00, g01, g10, g11 := g[0], g[1], g[2], g[3]
	bit := 1 << q
	for r0 := 0; r0 < dim; r0++ {
		if r0&bit != 0 {
			continue
		}
		r1 := r0 | bit
		row0 := u[r0*dim : (r0+1)*dim]
		row1 := u[r1*dim : (r1+1)*dim]
		for j, x0 := range row0 {
			x1 := row1[j]
			row0[j] = g00*x0 + g01*x1
			row1[j] = g10*x0 + g11*x1
		}
	}
}

// applyCX left-multiplies u by a CX with control ctrl and target tgt,
// in place: a swap of the row pairs that differ in the target bit and
// have the control bit set.
//
//epoc:hot
func applyCX(u []complex128, dim, ctrl, tgt int) {
	cbit, tbit := 1<<ctrl, 1<<tgt
	for r0 := 0; r0 < dim; r0++ {
		if r0&cbit == 0 || r0&tbit != 0 {
			continue
		}
		r1 := r0 | tbit
		row0 := u[r0*dim : (r0+1)*dim]
		row1 := u[r1*dim : (r1+1)*dim]
		for j := range row0 {
			row0[j], row1[j] = row1[j], row0[j]
		}
	}
}
