package synth

import (
	"math"

	"epoc/internal/circuit"
	"epoc/internal/gate"
	"epoc/internal/linalg"
	"epoc/internal/optimize"
)

// Synthesize1Q returns an exact circuit for a 1-qubit unitary: a single
// U3 gate from the ZYZ Euler angles (or an empty circuit for identity).
func Synthesize1Q(u *linalg.Matrix) *circuit.Circuit {
	c := circuit.New(1)
	_, beta, gamma, delta := optimize.ZYZ(u)
	if zeroAngle(beta) && zeroAngle(gamma) && zeroAngle(delta) {
		return c
	}
	// U3(θ,φ,λ) = RZ(φ)·RY(θ)·RZ(λ) up to phase.
	c.Append(gate.New(gate.U3, gamma, beta, delta), 0)
	return c
}

// threshold is the phase-invariant distance below which a QSearch
// result counts as an exact synthesis of the target.
const threshold = 1e-7

// SynthesizeOutcome synthesizes a block unitary into VUGs (U3) +
// CNOTs and reports ok = true when the search reached the accuracy
// threshold. On failure the best (out-of-threshold) search result is
// still returned with ok = false; the caller decides what to fall
// back to. The returned error classifies early exits the same way
// QSearch's Result.Err does: nil for a completed search,
// faultclock.ErrBudget when a budget stopped it (the partial circuit
// is still meaningful), or the context's error on cancellation. The
// outcome is a deterministic function of the unitary (up to global
// phase) and opts, which is what makes it cacheable and shareable
// across duplicate blocks.
func SynthesizeOutcome(u *linalg.Matrix, opts Options) (*circuit.Circuit, bool, error) {
	res := QSearch(u, opts)
	return res.Circuit, res.Circuit != nil && res.Distance < threshold, res.Err
}

func zeroAngle(a float64) bool {
	m := math.Mod(math.Abs(a), 2*math.Pi)
	return m < 1e-10 || 2*math.Pi-m < 1e-10
}
