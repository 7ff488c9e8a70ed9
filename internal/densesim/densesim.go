// Package densesim is a density-matrix simulator with noise channels.
// It closes the loop on the compiler's fidelity accounting: a compiled
// pulse schedule can be replayed as a sequence of unitaries each
// followed by a depolarizing channel of strength 1−F, and the state
// fidelity against the ideal output compared with the schedule's ESP
// (Equation 3), which is exactly the product-of-fidelities
// approximation the paper uses.
//
// Dimensions are kept small (ρ is 4^n complex numbers); intended for
// verification, not scale.
package densesim

import (
	"fmt"
	"math"
	"math/cmplx"

	"epoc/internal/circuit"
	"epoc/internal/gate"
	"epoc/internal/linalg"
)

// Density is an n-qubit density matrix.
type Density struct {
	N   int
	Rho *linalg.Matrix

	// Conjugation scratch, allocated on first use: every channel is a
	// sum of B·ρ·B† terms, and routing them through the Into kernels
	// with persistent buffers keeps schedule replays (one conjugation
	// per pulse step) allocation-light.
	tmp, out *linalg.Matrix
}

// ensureScratch lazily allocates the conjugation buffers so literal
// construction of Density (tests, callers that only read ρ) stays valid.
func (d *Density) ensureScratch() {
	if d.tmp == nil {
		dim := d.Rho.Rows
		d.tmp = linalg.NewMatrix(dim, dim)
		d.out = linalg.NewMatrix(dim, dim)
	}
}

// conjugate sets ρ ← b·ρ·b† with the fused adjoint kernel (b† is never
// materialized), swapping ρ with the scratch output instead of copying.
func (d *Density) conjugate(b *linalg.Matrix) {
	d.ensureScratch()
	linalg.MulInto(d.tmp, b, d.Rho)
	linalg.MulAdjointInto(d.out, d.tmp, b)
	d.Rho, d.out = d.out, d.Rho
}

// conjugateAdd adds b·ρ·b† into dst without touching ρ.
func (d *Density) conjugateAdd(dst *linalg.Matrix, b *linalg.Matrix) {
	d.ensureScratch()
	linalg.MulInto(d.tmp, b, d.Rho)
	linalg.MulAdjointInto(d.out, d.tmp, b)
	dst.AddInPlace(d.out)
}

// NewDensity returns |0…0⟩⟨0…0| on n qubits.
func NewDensity(n int) *Density {
	if n < 0 || n > 12 {
		panic(fmt.Sprintf("densesim: unsupported qubit count %d", n))
	}
	dim := 1 << n
	rho := linalg.NewMatrix(dim, dim)
	rho.Set(0, 0, 1)
	return &Density{N: n, Rho: rho}
}

// FromPure builds ρ = |ψ⟩⟨ψ| from an amplitude vector.
func FromPure(amp []complex128) *Density {
	n := 0
	for d := len(amp); d > 1; d >>= 1 {
		n++
	}
	dim := len(amp)
	rho := linalg.NewMatrix(dim, dim)
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			rho.Set(i, j, amp[i]*cmplx.Conj(amp[j]))
		}
	}
	return &Density{N: n, Rho: rho}
}

// ApplyUnitary conjugates ρ by a unitary on the listed target qubits.
// The schedule-replay loop calls this once per pulse step; only the
// operator embedding allocates, the conjugation itself runs in the
// reused scratch.
//
//epoc:hot
func (d *Density) ApplyUnitary(u *linalg.Matrix, targets []int) {
	big := linalg.EmbedOperator(u, targets, d.N)
	d.conjugate(big)
}

// ApplyOp applies one circuit op.
func (d *Density) ApplyOp(op circuit.Op) { d.ApplyUnitary(op.G.Matrix(), op.Qubits) }

// Depolarize applies a depolarizing channel of strength p on the
// listed qubits: ρ → (1−p)·ρ + p·(Tr_T ρ ⊗ I/2^k) restricted to the
// targets, implemented via uniform Pauli twirling.
func (d *Density) Depolarize(p float64, targets []int) {
	if p <= 0 {
		return
	}
	k := len(targets)
	paulis := []*linalg.Matrix{
		linalg.Identity(2),
		gate.New(gate.X).Matrix(),
		gate.New(gate.Y).Matrix(),
		gate.New(gate.Z).Matrix(),
	}
	count := 1
	for i := 0; i < k; i++ {
		count *= 4
	}
	mixed := linalg.NewMatrix(d.Rho.Rows, d.Rho.Cols)
	for idx := 0; idx < count; idx++ {
		// Build the Pauli string for this index.
		op := linalg.Identity(1)
		rem := idx
		for q := 0; q < k; q++ {
			op = paulis[rem%4].Kron(op)
			rem /= 4
		}
		big := linalg.EmbedOperator(op, targets, d.N)
		d.conjugateAdd(mixed, big)
	}
	mixed.ScaleInPlace(complex(1/float64(count), 0))
	d.Rho = d.Rho.Scale(complex(1-p, 0)).Add(mixed.Scale(complex(p, 0)))
}

// AmplitudeDamp applies an amplitude-damping channel of strength γ on
// one qubit (T1-style energy relaxation) via its two Kraus operators.
func (d *Density) AmplitudeDamp(gamma float64, q int) {
	if gamma <= 0 {
		return
	}
	k0 := linalg.FromRows([][]complex128{{1, 0}, {0, complex(math.Sqrt(1-gamma), 0)}})
	k1 := linalg.FromRows([][]complex128{{0, complex(math.Sqrt(gamma), 0)}, {0, 0}})
	b0 := linalg.EmbedOperator(k0, []int{q}, d.N)
	b1 := linalg.EmbedOperator(k1, []int{q}, d.N)
	d.applyKrausPair(b0, b1)
}

// applyKrausPair sets ρ ← b0·ρ·b0† + b1·ρ·b1† through the scratch
// kernels.
func (d *Density) applyKrausPair(b0, b1 *linalg.Matrix) {
	d.ensureScratch()
	sum := linalg.NewMatrix(d.Rho.Rows, d.Rho.Cols)
	d.conjugateAdd(sum, b0)
	d.conjugateAdd(sum, b1)
	d.Rho = sum
}

// Dephase applies a phase-damping channel of strength λ on one qubit
// (T2-style dephasing).
func (d *Density) Dephase(lambda float64, q int) {
	if lambda <= 0 {
		return
	}
	k0 := linalg.Identity(2).Scale(complex(math.Sqrt(1-lambda), 0))
	k1 := gate.New(gate.Z).Matrix().Scale(complex(math.Sqrt(lambda), 0))
	b0 := linalg.EmbedOperator(k0, []int{q}, d.N)
	b1 := linalg.EmbedOperator(k1, []int{q}, d.N)
	d.applyKrausPair(b0, b1)
}

// Trace returns Tr(ρ) (1 for a valid state).
func (d *Density) Trace() complex128 { return d.Rho.Trace() }

// Purity returns Tr(ρ²).
func (d *Density) Purity() float64 {
	return real(d.Rho.Mul(d.Rho).Trace())
}

// FidelityWithPure returns ⟨ψ|ρ|ψ⟩.
func (d *Density) FidelityWithPure(amp []complex128) float64 {
	v := d.Rho.MulVec(amp)
	var s complex128
	for i := range amp {
		s += cmplx.Conj(amp[i]) * v[i]
	}
	return real(s)
}

// NoisyFidelity replays a sequence of (unitary, qubit set, fidelity)
// steps on |0…0⟩ with a depolarizing channel of strength 1−F after
// each step, and returns the state fidelity against the noiseless
// output. This is the ground truth the ESP product approximates.
type Step struct {
	U        *linalg.Matrix
	Qubits   []int
	Fidelity float64
}

// NoisyFidelity simulates the steps with and without noise and returns
// the state fidelity between the two outcomes.
func NoisyFidelity(n int, steps []Step) float64 {
	ideal := make([]complex128, 1<<n)
	ideal[0] = 1
	for _, st := range steps {
		big := linalg.EmbedOperator(st.U, st.Qubits, n)
		ideal = big.MulVec(ideal)
	}
	noisy := NewDensity(n)
	for _, st := range steps {
		noisy.ApplyUnitary(st.U, st.Qubits)
		noisy.Depolarize(1-st.Fidelity, st.Qubits)
	}
	return noisy.FidelityWithPure(ideal)
}
