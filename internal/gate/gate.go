// Package gate defines the quantum gate set used throughout the
// compiler: fixed Clifford+T gates, parameterized rotations, controlled
// gates and matrix-carrying block gates (partitioned subcircuits and
// variable unitary gates produced by synthesis).
//
// Convention: gate-local qubit 0 is the least-significant bit of a
// basis-state index (little-endian, as in Qiskit). For controlled gates
// the control is gate-local qubit 0 and the target is qubit 1.
package gate

import (
	"fmt"
	"math"
	"math/cmplx"
	"strings"

	"epoc/internal/linalg"
)

// Kind names a gate type.
type Kind string

// Supported gate kinds.
const (
	I    Kind = "id"
	X    Kind = "x"
	Y    Kind = "y"
	Z    Kind = "z"
	H    Kind = "h"
	S    Kind = "s"
	Sdg  Kind = "sdg"
	T    Kind = "t"
	Tdg  Kind = "tdg"
	SX   Kind = "sx"
	SXdg Kind = "sxdg"
	RX   Kind = "rx"
	RY   Kind = "ry"
	RZ   Kind = "rz"
	P    Kind = "p" // phase gate, diag(1, e^{iλ})
	U1   Kind = "u1"
	U2   Kind = "u2"
	U3   Kind = "u3"
	CX   Kind = "cx"
	CY   Kind = "cy"
	CZ   Kind = "cz"
	CH   Kind = "ch"
	CRX  Kind = "crx"
	CRY  Kind = "cry"
	CRZ  Kind = "crz"
	CP   Kind = "cp"
	RXX  Kind = "rxx"
	RZZ  Kind = "rzz"
	SWAP Kind = "swap"
	CCX  Kind = "ccx"   // Toffoli: controls are qubits 0,1, target is qubit 2
	CSWP Kind = "cswap" // Fredkin: control is qubit 0, swapped pair 1,2

	// Unitary is a matrix-carrying block gate: a partitioned subcircuit
	// or a regrouped block whose matrix is stored explicitly.
	Unitary Kind = "unitary"
)

// Gate is a single quantum gate, possibly parameterized or carrying an
// explicit matrix (for the Unitary kind).
type Gate struct {
	Kind   Kind
	Params []float64
	// Mat is set only for the Unitary kind.
	Mat *linalg.Matrix
}

// Spec describes a gate kind's shape.
type Spec struct {
	Qubits int
	Params int
}

// Registry maps every fixed-size gate kind to its arity and parameter
// count. Unitary is excluded: its arity depends on the matrix.
var Registry = map[Kind]Spec{
	I: {1, 0}, X: {1, 0}, Y: {1, 0}, Z: {1, 0}, H: {1, 0},
	S: {1, 0}, Sdg: {1, 0}, T: {1, 0}, Tdg: {1, 0}, SX: {1, 0}, SXdg: {1, 0},
	RX: {1, 1}, RY: {1, 1}, RZ: {1, 1}, P: {1, 1}, U1: {1, 1}, U2: {1, 2}, U3: {1, 3},
	CX: {2, 0}, CY: {2, 0}, CZ: {2, 0}, CH: {2, 0},
	CRX: {2, 1}, CRY: {2, 1}, CRZ: {2, 1}, CP: {2, 1},
	RXX: {2, 1}, RZZ: {2, 1}, SWAP: {2, 0},
	CCX: {3, 0}, CSWP: {3, 0},
}

// New builds a gate of the given kind, validating the parameter count.
func New(k Kind, params ...float64) Gate {
	spec, ok := Registry[k]
	if !ok {
		panic(fmt.Sprintf("gate: unknown kind %q", k))
	}
	if len(params) != spec.Params {
		panic(fmt.Sprintf("gate: %s wants %d params, got %d", k, spec.Params, len(params)))
	}
	return Gate{Kind: k, Params: params}
}

// NewUnitary wraps an explicit unitary matrix as a block gate.
func NewUnitary(m *linalg.Matrix) Gate {
	checkPow2(m)
	return Gate{Kind: Unitary, Mat: m}
}

func checkPow2(m *linalg.Matrix) {
	if !m.IsSquare() || m.Rows == 0 || m.Rows&(m.Rows-1) != 0 {
		panic(fmt.Sprintf("gate: matrix dimension %dx%d is not a power of two", m.Rows, m.Cols))
	}
}

// Qubits returns the gate's arity.
func (g Gate) Qubits() int {
	if g.Kind == Unitary {
		n := 0
		for d := g.Mat.Rows; d > 1; d >>= 1 {
			n++
		}
		return n
	}
	return Registry[g.Kind].Qubits
}

// IsBlock reports whether the gate carries an explicit matrix.
func (g Gate) IsBlock() bool { return g.Kind == Unitary }

// Matrix returns the gate's unitary in gate-local little-endian
// ordering.
func (g Gate) Matrix() *linalg.Matrix {
	switch g.Kind {
	case Unitary:
		return g.Mat
	case I:
		return linalg.Identity(2)
	case X:
		return mat2(0, 1, 1, 0)
	case Y:
		return mat2(0, -1i, 1i, 0)
	case Z:
		return mat2(1, 0, 0, -1)
	case H:
		s := complex(1/math.Sqrt2, 0)
		return mat2(s, s, s, -s)
	case S:
		return mat2(1, 0, 0, 1i)
	case Sdg:
		return mat2(1, 0, 0, -1i)
	case T:
		return mat2(1, 0, 0, cmplx.Exp(1i*math.Pi/4))
	case Tdg:
		return mat2(1, 0, 0, cmplx.Exp(-1i*math.Pi/4))
	case SX:
		return mat2(0.5+0.5i, 0.5-0.5i, 0.5-0.5i, 0.5+0.5i)
	case SXdg:
		return mat2(0.5-0.5i, 0.5+0.5i, 0.5+0.5i, 0.5-0.5i)
	case RX:
		c, s := rotHalf(g.Params[0])
		return mat2(c, complex(0, -1)*s, complex(0, -1)*s, c)
	case RY:
		c, s := rotHalf(g.Params[0])
		return mat2(c, -s, s, c)
	case RZ:
		e := cmplx.Exp(complex(0, -g.Params[0]/2))
		return mat2(e, 0, 0, cmplx.Conj(e))
	case P, U1:
		return mat2(1, 0, 0, cmplx.Exp(complex(0, g.Params[0])))
	case U2:
		phi, lam := g.Params[0], g.Params[1]
		inv := complex(1/math.Sqrt2, 0)
		return mat2(
			inv, -inv*cmplx.Exp(complex(0, lam)),
			inv*cmplx.Exp(complex(0, phi)), inv*cmplx.Exp(complex(0, phi+lam)))
	case U3:
		return u3Matrix(g.Params[0], g.Params[1], g.Params[2])
	case CX:
		return controlled(New(X).Matrix())
	case CY:
		return controlled(New(Y).Matrix())
	case CZ:
		return controlled(New(Z).Matrix())
	case CH:
		return controlled(New(H).Matrix())
	case CRX:
		return controlled(New(RX, g.Params[0]).Matrix())
	case CRY:
		return controlled(New(RY, g.Params[0]).Matrix())
	case CRZ:
		return controlled(New(RZ, g.Params[0]).Matrix())
	case CP:
		return controlled(New(P, g.Params[0]).Matrix())
	case RXX:
		return twoBodyRotation(New(X).Matrix(), g.Params[0])
	case RZZ:
		return twoBodyRotation(New(Z).Matrix(), g.Params[0])
	case SWAP:
		m := linalg.NewMatrix(4, 4)
		m.Set(0, 0, 1)
		m.Set(1, 2, 1)
		m.Set(2, 1, 1)
		m.Set(3, 3, 1)
		return m
	case CCX:
		// Controls = qubits 0,1 (low bits), target = qubit 2 (high bit).
		m := linalg.Identity(8)
		m.Set(3, 3, 0)
		m.Set(7, 7, 0)
		m.Set(3, 7, 1)
		m.Set(7, 3, 1)
		return m
	case CSWP:
		// Control = qubit 0; swap qubits 1 and 2 when it is set.
		m := linalg.Identity(8)
		// |c=1, q1=1, q2=0> (index 0b011=3) <-> |c=1, q1=0, q2=1> (0b101=5)
		m.Set(3, 3, 0)
		m.Set(5, 5, 0)
		m.Set(3, 5, 1)
		m.Set(5, 3, 1)
		return m
	}
	panic(fmt.Sprintf("gate: no matrix for kind %q", g.Kind))
}

// Dagger returns the inverse gate.
func (g Gate) Dagger() Gate {
	switch g.Kind {
	case Unitary:
		return NewUnitary(g.Mat.Adjoint())
	case S:
		return New(Sdg)
	case Sdg:
		return New(S)
	case T:
		return New(Tdg)
	case Tdg:
		return New(T)
	case SX:
		return New(SXdg)
	case SXdg:
		return New(SX)
	case RX, RY, RZ, P, U1, CRX, CRY, CRZ, CP, RXX, RZZ:
		return New(g.Kind, -g.Params[0])
	case U2:
		// U2(φ,λ)† = U3(-π/2, -λ, -φ)
		return New(U3, -math.Pi/2, -g.Params[1], -g.Params[0])
	case U3:
		return New(U3, -g.Params[0], -g.Params[2], -g.Params[1])
	default:
		// Self-inverse gates: I X Y Z H CX CY CZ CH SWAP CCX CSWAP.
		return g
	}
}

// IsDiagonal reports whether the gate's matrix is diagonal in the
// computational basis (commutes with Z-basis operations).
func (g Gate) IsDiagonal() bool {
	switch g.Kind {
	case I, Z, S, Sdg, T, Tdg, RZ, P, U1, CZ, CRZ, CP, RZZ:
		return true
	}
	return false
}

// String renders the gate in QASM-like syntax.
func (g Gate) String() string {
	if g.IsBlock() {
		return fmt.Sprintf("%s[%dq]", g.Kind, g.Qubits())
	}
	if len(g.Params) == 0 {
		return string(g.Kind)
	}
	parts := make([]string, len(g.Params))
	for i, p := range g.Params {
		parts[i] = fmt.Sprintf("%.6g", p)
	}
	return fmt.Sprintf("%s(%s)", g.Kind, strings.Join(parts, ","))
}

func mat2(a, b, c, d complex128) *linalg.Matrix {
	return linalg.FromRows([][]complex128{{a, b}, {c, d}})
}

func rotHalf(theta float64) (c, s complex128) {
	return complex(math.Cos(theta/2), 0), complex(math.Sin(theta/2), 0)
}

func u3Matrix(theta, phi, lam float64) *linalg.Matrix {
	c := complex(math.Cos(theta/2), 0)
	s := complex(math.Sin(theta/2), 0)
	return mat2(
		c, -s*cmplx.Exp(complex(0, lam)),
		s*cmplx.Exp(complex(0, phi)), c*cmplx.Exp(complex(0, phi+lam)))
}

// controlled returns the controlled version of a 1-qubit unitary with
// the control on gate-local qubit 0 (low bit) and target on qubit 1.
func controlled(u *linalg.Matrix) *linalg.Matrix {
	m := linalg.Identity(4)
	// Basis index = (target<<1) | control: the control-set states are
	// indices 1 (t=0) and 3 (t=1).
	m.Set(1, 1, u.At(0, 0))
	m.Set(1, 3, u.At(0, 1))
	m.Set(3, 1, u.At(1, 0))
	m.Set(3, 3, u.At(1, 1))
	return m
}

// twoBodyRotation returns exp(-i θ/2 · P⊗P) for a 1-qubit Pauli P.
func twoBodyRotation(p *linalg.Matrix, theta float64) *linalg.Matrix {
	pp := p.Kron(p)
	return linalg.Expm(pp.Scale(complex(0, -theta/2)))
}
