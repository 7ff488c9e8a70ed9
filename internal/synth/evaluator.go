package synth

import (
	"math"
	"math/cmplx"

	"epoc/internal/linalg"
)

// sweepOp is one gate of a template's forward sweep: a U3 on qubit a
// whose parameters start at x[p], or, when p < 0, a CX with control a
// and target b.
type sweepOp struct{ a, b, p int }

// evaluator computes the instantiation objective of one target (the
// phase-invariant Hilbert-Schmidt cost 1 - |tr(T(x)†·U)|/dim) and its
// exact gradient, for whichever template it was last reset to. Gates
// act directly on the rows of preallocated products instead of being
// embedded into dense operators. The objective is bit-identical to
// evaluating the dense product EmbedOperator(g_k)·…·EmbedOperator(g_0)
// through linalg.Mul (DESIGN.md §14); the gradient is the adjoint of
// that sweep, exact up to rounding, from a forward sweep that keeps
// every prefix product and one backward sweep.
//
// The objective and the gradient share their forward sweeps: the last
// two points evaluated stay in two slots, and a call at a point a slot
// holds (bitwise) reuses its sweep. L-BFGS takes its gradient at the
// last or second-to-last point its line search tried, and its first
// objective at the point of its first gradient, so every gradient but
// the first runs only the backward sweep.
//
// An evaluator owns its buffers and is not safe for concurrent use; a
// QSearch builds one and reuses it for every node it instantiates.
type evaluator struct {
	dim    int
	target []complex128
	ops    []sweepOp
	slots  [2]sweep     // the two most recently used points
	next   int          // the least recently used slot, which a miss overwrites
	back   []complex128 // running product of the gradient's adjoint sweep
}

// sweep is one forward sweep of the template at x.
type sweep struct {
	valid bool
	x     []float64 // the point, copied
	// prefix holds len(ops)+1 dim×dim products, row-major:
	// prefix[k·dim²:] is the product of ops[:k] at x.
	prefix []complex128
	trig   []u3Trig   // the factors of each op's U3 at x
	s      complex128 // the overlap tr(T(x)†·U) of the full product
}

// newEvaluator returns an evaluator for target on n qubits with buffers
// sized for templates of up to maxPlacements CNOTs; larger templates
// grow them on reset.
func newEvaluator(target *linalg.Matrix, n, maxPlacements int) *evaluator {
	dim := 1 << n
	e := &evaluator{dim: dim, target: target.Data, back: make([]complex128, dim*dim)}
	e.grow(n + 3*maxPlacements)
	return e
}

func (e *evaluator) grow(nops int) {
	if cap(e.ops) < nops {
		e.ops = make([]sweepOp, 0, nops)
		for i := range e.slots {
			e.slots[i].x = make([]float64, 0, 3*nops)
			e.slots[i].trig = make([]u3Trig, nops)
			e.slots[i].prefix = make([]complex128, (nops+1)*e.dim*e.dim)
		}
	}
}

// reset points the evaluator at template t and empties both slots. The
// sweep order matches template.toCircuit: a U3 on every qubit, then per
// placement a CX and U3s on its control and target.
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
	for i := range e.slots {
		e.slots[i].valid = false
		e.slots[i].x = e.slots[i].x[:p]
	}
}

// at returns the forward sweep at x: a slot's, when it holds x, or a
// new one run into the least recently used slot.
//
//epoc:hot
func (e *evaluator) at(x []float64) *sweep {
	for i := range e.slots {
		if sl := &e.slots[i]; sl.valid && linalg.SameBits(sl.x, x) {
			e.next = 1 - i
			return sl
		}
	}
	sl := &e.slots[e.next]
	e.next = 1 - e.next
	e.forward(sl, x)
	return sl
}

// forward runs the template's sweep at x from the identity into sl,
// keeping every prefix product and every U3's factors.
//
//epoc:hot
func (e *evaluator) forward(sl *sweep, x []float64) {
	dd := e.dim * e.dim
	setIdentity(sl.prefix[:dd], e.dim)
	for k, op := range e.ops {
		next := sl.prefix[(k+1)*dd : (k+2)*dd]
		copy(next, sl.prefix[k*dd:(k+1)*dd])
		if op.p < 0 {
			applyCX(next, e.dim, op.a, op.b)
			continue
		}
		sl.trig[k] = newU3Trig(x[op.p], x[op.p+1], x[op.p+2])
		g := sl.trig[k].entries()
		applyU3(next, e.dim, op.a, &g)
	}
	n := len(e.ops)
	sl.s = e.overlap(sl.prefix[n*dd : (n+1)*dd])
	copy(sl.x, x)
	sl.valid = true
}

// objective is the HS cost of the template at x: one forward sweep
// from the identity, or none when a slot holds x.
//
//epoc:hot
func (e *evaluator) objective(x []float64) float64 {
	return e.distance(e.at(x).s)
}

// gradient fills grad with the exact gradient of the objective at x.
// With U = A_k·G_k·P_k, where P_k is the product of the ops before op
// k and A_k of those after it, the overlap s = tr(U†·T) is
// tr((G_k·P_k)†·B_k) with B_k = A_k†·T. So s is linear in op k's 2×2
// gate g: s = Σ conj(g_αβ)·M_αβ over its environment
// M_αβ = Σ conj(P_k[r_β,·])·B_k[r_α,·], summed over the row pairs
// (r_0, r_1) that differ in op k's qubit. The forward sweep keeps every
// P_k, and one backward sweep from B = T forms each U3's environment
// and then steps B ← G_k†·B. ∂f = -Re(s̄·∂s)/(|s|·dim), with ∂s from
// the closed-form derivatives of U3.
//
//epoc:hot
func (e *evaluator) gradient(x, grad []float64) {
	sl := e.at(x)
	dd := e.dim * e.dim
	abs := cmplx.Abs(sl.s)
	if !(abs > 0) {
		// f = 1, its maximum, where |s| has no derivative.
		for i := range grad {
			grad[i] = 0
		}
		return
	}
	// ∂f = -Re(w·∂s) with w = s̄/(|s|·dim).
	w := cmplx.Conj(sl.s) / complex(abs*float64(e.dim), 0)
	copy(e.back, e.target)
	var m [4]complex128
	for k := len(e.ops) - 1; k >= 0; k-- {
		op := e.ops[k]
		if op.p < 0 {
			applyCX(e.back, e.dim, op.a, op.b)
			continue
		}
		environment(sl.prefix[k*dd:(k+1)*dd], e.back, e.dim, op.a, &m)
		dth, dph, dla := sl.trig[k].overlapDerivs(&m)
		grad[op.p] = -real(w * dth)
		grad[op.p+1] = -real(w * dph)
		grad[op.p+2] = -real(w * dla)
		if k > 0 {
			gh := sl.trig[k].adjoint()
			applyU3(e.back, e.dim, op.a, &gh)
		}
	}
}

// environment fills m with the 2×2 environment of a gate on qubit q
// between the prefix product p and the adjoint-swept target b:
// m[2α+β] = Σ conj(p[r_β,·])·b[r_α,·] over the row pairs r_0 (bit q
// clear) and r_1 = r_0|bit.
//
//epoc:hot
func environment(p, b []complex128, dim, q int, m *[4]complex128) {
	var m00, m01, m10, m11 complex128
	bit := 1 << q
	for r0 := 0; r0 < dim; r0++ {
		if r0&bit != 0 {
			continue
		}
		r1 := r0 | bit
		p0, p1 := p[r0*dim:(r0+1)*dim], p[r1*dim:(r1+1)*dim]
		b0, b1 := b[r0*dim:(r0+1)*dim], b[r1*dim:(r1+1)*dim]
		for j := range p0 {
			c0, c1 := cmplx.Conj(p0[j]), cmplx.Conj(p1[j])
			m00 += c0 * b0[j]
			m01 += c1 * b0[j]
			m10 += c0 * b1[j]
			m11 += c1 * b1[j]
		}
	}
	m[0], m[1], m[2], m[3] = m00, m01, m10, m11
}

// distance is 1 - |s|/dim for the overlap s = tr(u†·target).
func (e *evaluator) distance(s complex128) float64 {
	d := 1 - cmplx.Abs(s)/float64(e.dim)
	if d < 0 {
		return 0
	}
	return d
}

// overlap is tr(u†·target), summed in linalg.HSInner's order.
func (e *evaluator) overlap(u []complex128) complex128 {
	var s complex128
	for i, v := range u {
		s += cmplx.Conj(v) * e.target[i]
	}
	return s
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

// newU3Trig takes cos and sin of θ/2 from one math.Sincos, which
// shares math.Sin's and math.Cos's argument reduction and polynomials
// and so returns their bits.
func newU3Trig(theta, phi, lam float64) u3Trig {
	s, c := math.Sincos(theta / 2)
	return u3Trig{
		c: complex(c, 0), s: complex(s, 0),
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

// adjoint returns the entries of U3(θ,φ,λ)†.
func (t u3Trig) adjoint() [4]complex128 {
	g := t.entries()
	return [4]complex128{cmplx.Conj(g[0]), cmplx.Conj(g[2]), cmplx.Conj(g[1]), cmplx.Conj(g[3])}
}

// overlapDerivs returns ∂s/∂θ, ∂s/∂φ and ∂s/∂λ for an overlap
// s = Σ conj(g_j)·m[j] that is linear in the gate's entries g. With
// g = [c, -s·e^{iλ}, s·e^{iφ}, c·e^{i(φ+λ)}], c = cos θ/2, s = sin θ/2:
// ∂θ g = ½[-s, -c·e^{iλ}, c·e^{iφ}, -s·e^{i(φ+λ)}],
// ∂φ g = [0, 0, i·s·e^{iφ}, i·c·e^{i(φ+λ)}] and
// ∂λ g = [0, -i·s·e^{iλ}, 0, i·c·e^{i(φ+λ)}].
func (t u3Trig) overlapDerivs(m *[4]complex128) (dth, dph, dla complex128) {
	eLam, ePhi, eSum := cmplx.Conj(t.eLam)*m[1], cmplx.Conj(t.ePhi)*m[2], cmplx.Conj(t.eSum)*m[3]
	dth = 0.5 * (-t.s*m[0] - t.c*eLam + t.c*ePhi - t.s*eSum)
	dph = -1i * (t.s*ePhi + t.c*eSum)
	dla = -1i * (t.c*eSum - t.s*eLam)
	return dth, dph, dla
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
