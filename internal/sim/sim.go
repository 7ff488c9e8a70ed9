// Package sim is a state-vector simulator used to verify compiler
// passes: it applies gates directly to amplitudes without materializing
// 2^n × 2^n matrices, so equivalence checks stay cheap for circuits
// that are too large for circuit.Unitary.
//
// Qubit 0 is the least-significant bit of a basis-state index,
// matching the circuit package.
package sim

import (
	"fmt"
	"math/cmplx"

	"epoc/internal/circuit"
	"epoc/internal/linalg"
)

// State is a normalized state vector over n qubits.
type State struct {
	N   int
	Amp []complex128
}

// NewState returns |00…0⟩ on n qubits.
func NewState(n int) *State {
	if n < 0 || n > 30 {
		panic(fmt.Sprintf("sim: unsupported qubit count %d", n))
	}
	s := &State{N: n, Amp: make([]complex128, 1<<n)}
	s.Amp[0] = 1
	return s
}

// FromAmplitudes wraps an amplitude vector (length must be a power of
// two). The vector is used directly, not copied.
func FromAmplitudes(amp []complex128) *State {
	n := 0
	for d := len(amp); d > 1; d >>= 1 {
		if d&1 == 1 {
			panic("sim: amplitude length is not a power of two")
		}
		n++
	}
	if len(amp) == 0 {
		panic("sim: empty amplitude vector")
	}
	return &State{N: n, Amp: amp}
}

// Clone returns a deep copy of the state.
func (s *State) Clone() *State {
	out := &State{N: s.N, Amp: make([]complex128, len(s.Amp))}
	copy(out.Amp, s.Amp)
	return out
}

// ApplyMatrix applies a 2^k × 2^k unitary to the listed target qubits.
// targets[0] is the least-significant bit of the small matrix index.
// One and two targets run in-place stride kernels; wider gates gather
// each group of 2^k amplitudes through offsets computed once per call.
// Every path sums a row as u[i][0]·a₀ + u[i][1]·a₁ + … in column
// order, which keeps it bit-identical to the gather/multiply/scatter
// reference in the package tests.
func (s *State) ApplyMatrix(u *linalg.Matrix, targets []int) {
	k := len(targets)
	dim := 1 << k
	if u.Rows != dim || u.Cols != dim {
		panic(fmt.Sprintf("sim: matrix is %dx%d for %d targets", u.Rows, u.Cols, k))
	}
	mask := 0
	for _, t := range targets {
		if t < 0 || t >= s.N || mask&(1<<t) != 0 {
			panic(fmt.Sprintf("sim: bad targets %v for %d qubits", targets, s.N))
		}
		mask |= 1 << t
	}
	switch k {
	case 1:
		apply1(s.Amp, targets[0], (*[4]complex128)(u.Data))
	case 2:
		apply2(s.Amp, targets[0], targets[1], (*[16]complex128)(u.Data))
	default:
		applyK(s.Amp, mask, targets, u.Data)
	}
}

// apply1 applies the 2×2 gate g to qubit t in place: each amplitude
// a₀ with bit t clear and its partner a₁ with bit t set mix as
// a₀' = g00·a₀ + g01·a₁ and a₁' = g10·a₀ + g11·a₁.
//
//epoc:hot
func apply1(amp []complex128, t int, g *[4]complex128) {
	g00, g01, g10, g11 := g[0], g[1], g[2], g[3]
	m := 1 << t
	for hi := 0; hi < len(amp); hi += 2 * m {
		for i0 := hi; i0 < hi+m; i0++ {
			i1 := i0 + m
			a0, a1 := amp[i0], amp[i1]
			amp[i0] = g00*a0 + g01*a1
			amp[i1] = g10*a0 + g11*a1
		}
	}
}

// apply2 applies the 4×4 gate g to qubits t0 (low bit of g's index)
// and t1 in place, walking the base indices with both bits clear. The
// targets may come in either order.
//
//epoc:hot
func apply2(amp []complex128, t0, t1 int, g *[16]complex128) {
	m0, m1 := 1<<t0, 1<<t1
	lo, hi := min(m0, m1), max(m0, m1)
	for a := 0; a < len(amp); a += 2 * hi {
		for b := a; b < a+hi; b += 2 * lo {
			for i0 := b; i0 < b+lo; i0++ {
				i1, i2, i3 := i0+m0, i0+m1, i0+m0+m1
				a0, a1, a2, a3 := amp[i0], amp[i1], amp[i2], amp[i3]
				amp[i0] = g[0]*a0 + g[1]*a1 + g[2]*a2 + g[3]*a3
				amp[i1] = g[4]*a0 + g[5]*a1 + g[6]*a2 + g[7]*a3
				amp[i2] = g[8]*a0 + g[9]*a1 + g[10]*a2 + g[11]*a3
				amp[i3] = g[12]*a0 + g[13]*a1 + g[14]*a2 + g[15]*a3
			}
		}
	}
}

// applyK applies a 2^k × 2^k gate u to any number of targets (mask is
// their bit set). off[i] holds the amplitude offset of small index i;
// base steps through the indices with every target bit clear. For
// k ≤ 3 the gather buffers live on the stack.
//
//epoc:hot
func applyK(amp []complex128, mask int, targets []int, u []complex128) {
	dim := 1 << len(targets)
	var offBuf [8]int
	var subBuf [8]complex128
	off, sub := offBuf[:], subBuf[:]
	if dim > len(offBuf) {
		off, sub = make([]int, dim), make([]complex128, dim)
	}
	off, sub = off[:dim], sub[:dim]
	for i := range off {
		for b, t := range targets {
			if i&(1<<b) != 0 {
				off[i] |= 1 << t
			}
		}
	}
	for base := 0; base < len(amp); base = ((base | mask) + 1) &^ mask {
		for i, o := range off {
			sub[i] = amp[base+o]
		}
		for i, o := range off {
			var acc complex128
			for j, a := range u[i*dim : (i+1)*dim] {
				acc += a * sub[j]
			}
			amp[base+o] = acc
		}
	}
}

// ApplyOp applies one circuit op.
func (s *State) ApplyOp(op circuit.Op) {
	s.ApplyMatrix(op.G.Matrix(), op.Qubits)
}

// Run applies every op of the circuit in order.
func (s *State) Run(c *circuit.Circuit) {
	if c.NumQubits != s.N {
		panic(fmt.Sprintf("sim: circuit has %d qubits, state has %d", c.NumQubits, s.N))
	}
	for _, op := range c.Ops {
		s.ApplyOp(op)
	}
}

// RunCircuit returns the state produced by applying c to |0…0⟩.
func RunCircuit(c *circuit.Circuit) *State {
	s := NewState(c.NumQubits)
	s.Run(c)
	return s
}

// Overlap returns ⟨s|t⟩.
func (s *State) Overlap(t *State) complex128 {
	if s.N != t.N {
		panic("sim: overlap dimension mismatch")
	}
	var acc complex128
	for i := range s.Amp {
		acc += cmplx.Conj(s.Amp[i]) * t.Amp[i]
	}
	return acc
}

// Fidelity returns |⟨s|t⟩|².
func (s *State) Fidelity(t *State) float64 {
	o := cmplx.Abs(s.Overlap(t))
	return o * o
}

// Probability returns the probability of measuring basis state idx.
func (s *State) Probability(idx int) float64 {
	a := s.Amp[idx]
	return real(a)*real(a) + imag(a)*imag(a)
}
