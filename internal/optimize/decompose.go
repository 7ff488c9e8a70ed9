// Package optimize provides gate-level circuit transformations: a
// decomposition pass that rewrites any supported gate into the
// {RZ, RX, H, CX, CZ} basis consumed by the ZX converter, and a
// peephole optimizer (inverse cancellation, rotation merging,
// commutation-aware sinking) used both as a cleanup pass and as the
// verified fallback when ZX extraction declines a circuit.
package optimize

import (
	"fmt"
	"math"
	"math/cmplx"

	"epoc/internal/circuit"
	"epoc/internal/gate"
	"epoc/internal/linalg"
)

// DecomposeToBasis rewrites every op into the basis
// {RZ, RX, H, CX, CZ}, preserving the circuit's unitary up to global
// phase. Block gates (unitary/vug) are not handled here — synthesize
// them first.
func DecomposeToBasis(c *circuit.Circuit) *circuit.Circuit {
	out := circuit.New(c.NumQubits)
	for _, op := range c.Ops {
		emitBasis(out, op)
	}
	return out
}

func emitBasis(out *circuit.Circuit, op circuit.Op) {
	q := op.Qubits
	g := op.G
	rz := func(theta float64, q int) {
		if !zeroMod2Pi(theta) {
			out.Append(gate.New(gate.RZ, theta), q)
		}
	}
	rx := func(theta float64, q int) {
		if !zeroMod2Pi(theta) {
			out.Append(gate.New(gate.RX, theta), q)
		}
	}
	h := func(q int) { out.Append(gate.New(gate.H), q) }
	cx := func(c, t int) { out.Append(gate.New(gate.CX), c, t) }

	switch g.Kind {
	case gate.I:
		// drop
	case gate.RZ:
		rz(g.Params[0], q[0])
	case gate.RX:
		rx(g.Params[0], q[0])
	case gate.H:
		h(q[0])
	case gate.CX:
		cx(q[0], q[1])
	case gate.CZ:
		out.Append(gate.New(gate.CZ), q[0], q[1])
	case gate.X:
		rx(math.Pi, q[0])
	case gate.Y:
		rz(math.Pi, q[0])
		rx(math.Pi, q[0])
	case gate.Z:
		rz(math.Pi, q[0])
	case gate.S:
		rz(math.Pi/2, q[0])
	case gate.Sdg:
		rz(-math.Pi/2, q[0])
	case gate.T:
		rz(math.Pi/4, q[0])
	case gate.Tdg:
		rz(-math.Pi/4, q[0])
	case gate.SX:
		rx(math.Pi/2, q[0])
	case gate.SXdg:
		rx(-math.Pi/2, q[0])
	case gate.P, gate.U1:
		rz(g.Params[0], q[0])
	case gate.RY:
		// RY(θ) = RZ(π/2)·RX(θ)·RZ(-π/2) (conjugation rotates X into Y).
		rz(-math.Pi/2, q[0])
		rx(g.Params[0], q[0])
		rz(math.Pi/2, q[0])
	case gate.U2:
		emitBasis(out, circuit.NewOp(gate.New(gate.U3, math.Pi/2, g.Params[0], g.Params[1]), q[0]))
	case gate.U3:
		// U3(θ,φ,λ) = RZ(φ)·RY(θ)·RZ(λ) up to global phase.
		theta, phi, lam := g.Params[0], g.Params[1], g.Params[2]
		rz(lam, q[0])
		emitBasis(out, circuit.NewOp(gate.New(gate.RY, theta), q[0]))
		rz(phi, q[0])
	case gate.CY:
		rz(-math.Pi/2, q[1])
		cx(q[0], q[1])
		rz(math.Pi/2, q[1])
	case gate.CH:
		// Controlled-H via the ABC construction on H = e^{iπ/2}·RZ(π/2)·RY(π/2)·RZ(π/2)... handled generically.
		emitControlled1Q(out, gate.New(gate.H).Matrix(), q[0], q[1])
	case gate.CRZ:
		rz(g.Params[0]/2, q[1])
		cx(q[0], q[1])
		rz(-g.Params[0]/2, q[1])
		cx(q[0], q[1])
	case gate.CRX:
		h(q[1])
		emitBasis(out, circuit.NewOp(gate.New(gate.CRZ, g.Params[0]), q[0], q[1]))
		h(q[1])
	case gate.CRY:
		emitBasis(out, circuit.NewOp(gate.New(gate.RY, g.Params[0]/2), q[1]))
		cx(q[0], q[1])
		emitBasis(out, circuit.NewOp(gate.New(gate.RY, -g.Params[0]/2), q[1]))
		cx(q[0], q[1])
	case gate.CP:
		lam := g.Params[0]
		rz(lam/2, q[0])
		cx(q[0], q[1])
		rz(-lam/2, q[1])
		cx(q[0], q[1])
		rz(lam/2, q[1])
	case gate.RZZ:
		cx(q[0], q[1])
		rz(g.Params[0], q[1])
		cx(q[0], q[1])
	case gate.RXX:
		h(q[0])
		h(q[1])
		cx(q[0], q[1])
		rz(g.Params[0], q[1])
		cx(q[0], q[1])
		h(q[0])
		h(q[1])
	case gate.SWAP:
		cx(q[0], q[1])
		cx(q[1], q[0])
		cx(q[0], q[1])
	case gate.CCX:
		// Standard 6-CNOT Toffoli; controls q[0], q[1], target q[2].
		a, b, t := q[0], q[1], q[2]
		h(t)
		cx(b, t)
		rz(-math.Pi/4, t)
		cx(a, t)
		rz(math.Pi/4, t)
		cx(b, t)
		rz(-math.Pi/4, t)
		cx(a, t)
		rz(math.Pi/4, b)
		rz(math.Pi/4, t)
		h(t)
		cx(a, b)
		rz(math.Pi/4, a)
		rz(-math.Pi/4, b)
		cx(a, b)
	case gate.CSWP:
		// Fredkin = CX(t2,t1)·CCX(c,t1,t2)·CX(t2,t1).
		c0, t1, t2 := q[0], q[1], q[2]
		cx(t2, t1)
		emitBasis(out, circuit.NewOp(gate.New(gate.CCX), c0, t1, t2))
		cx(t2, t1)
	case gate.Unitary:
		panic(fmt.Sprintf("optimize: cannot decompose block gate %s; synthesize it first", g))
	default:
		panic(fmt.Sprintf("optimize: no decomposition for %s", g.Kind))
	}
}

// emitControlled1Q emits a controlled version of an arbitrary 1-qubit
// unitary using the ABC construction: with U = e^{iα}·RZ(β)·RY(γ)·RZ(δ),
// CU = P(α)_c · [A · CX · B · CX · C]_t where A·B·C with the X
// conjugation reproduces U and A·X·B·X·C = I.
func emitControlled1Q(out *circuit.Circuit, u *linalg.Matrix, ctrl, tgt int) {
	alpha, beta, gamma, delta := zyzAngles(u)
	// C = RZ((δ-β)/2)
	// B = RY(-γ/2)·RZ(-(δ+β)/2)
	// A = RZ(β)·RY(γ/2)
	emit := func(g gate.Gate, q int) { emitBasis(out, circuit.NewOp(g, q)) }
	emit(gate.New(gate.RZ, (delta-beta)/2), tgt)
	out.Append(gate.New(gate.CX), ctrl, tgt)
	emit(gate.New(gate.RZ, -(delta+beta)/2), tgt)
	emit(gate.New(gate.RY, -gamma/2), tgt)
	out.Append(gate.New(gate.CX), ctrl, tgt)
	emit(gate.New(gate.RY, gamma/2), tgt)
	emit(gate.New(gate.RZ, beta), tgt)
	emit(gate.New(gate.RZ, alpha), ctrl) // phase on control = P(α)
}

// zyzAngles returns (α, β, γ, δ) with U = e^{iα}·RZ(β)·RY(γ)·RZ(δ).
func zyzAngles(u *linalg.Matrix) (alpha, beta, gamma, delta float64) {
	det := u.At(0, 0)*u.At(1, 1) - u.At(0, 1)*u.At(1, 0)
	// Normalize to SU(2).
	phase := cmplx.Sqrt(det)
	su := u.Scale(1 / phase)
	alpha = cmplx.Phase(phase)
	a := su.At(0, 0)
	c := su.At(1, 0)
	gamma = 2 * math.Atan2(cmplx.Abs(c), cmplx.Abs(a))
	if cmplx.Abs(a) < 1e-12 {
		// cos(γ/2)=0: only β-δ is determined; pick δ=0.
		beta = 2 * cmplx.Phase(c)
		delta = 0
	} else if cmplx.Abs(c) < 1e-12 {
		// sin(γ/2)=0: only β+δ is determined; pick δ=0.
		beta = -2 * cmplx.Phase(a)
		delta = 0
	} else {
		sum := -2 * cmplx.Phase(a) // β+δ
		diff := 2 * cmplx.Phase(c) // β-δ
		beta = (sum + diff) / 2
		delta = (sum - diff) / 2
	}
	return alpha, beta, gamma, delta
}

// ZYZ returns the angles (α, β, γ, δ) of the Euler decomposition
// U = e^{iα}·RZ(β)·RY(γ)·RZ(δ) of a 1-qubit unitary. Exported for the
// synthesis package.
func ZYZ(u *linalg.Matrix) (alpha, beta, gamma, delta float64) {
	if u.Rows != 2 || u.Cols != 2 {
		panic("optimize: ZYZ needs a 2x2 matrix")
	}
	return zyzAngles(u)
}

func zeroMod2Pi(theta float64) bool {
	m := math.Mod(theta, 2*math.Pi)
	if m < 0 {
		m += 2 * math.Pi
	}
	return m < 1e-12 || 2*math.Pi-m < 1e-12
}
