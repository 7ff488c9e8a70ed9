// Package qoc implements quantum optimal control: a rotating-frame
// transmon-style Hamiltonian model with per-qubit X/Y drives and
// tunable exchange couplers, the GRAPE algorithm (Khaneja et al. 2005)
// with piecewise-constant controls and first-order gradients, and the
// AccQOC-style binary search for the shortest pulse duration reaching a
// fidelity threshold.
//
// Units: time in nanoseconds, angular frequencies in rad/ns.
package qoc

import (
	"fmt"

	"epoc/internal/gate"
	"epoc/internal/linalg"
)

// Model describes the controllable Hamiltonian
// H(t) = H0 + Σ_j u_j(t)·H_j with |u_j| ≤ MaxAmp[j].
//
// StandardModel records each control's nonzero pattern when it builds
// the model; the slice steps and gradients read only those entries.
// A Model is shared read-only across workers, so its Drift and
// Controls must not change after construction.
type Model struct {
	N        int
	Drift    *linalg.Matrix
	Controls []*linalg.Matrix
	Names    []string
	MaxAmp   []float64
	Dt       float64 // time-slot width in ns

	// terms[j] lists the nonzero entries of Controls[j] in the order
	// traceProduct sums them; touched lists, in ascending row-major
	// order, every entry of the gradient's product ρ = prefix·left
	// that some control's trace reads.
	terms   [][]ctrlTerm
	touched []rhoEntry
}

// ctrlTerm is one nonzero entry H_j[k][i] of a control Hamiltonian.
type ctrlTerm struct {
	h   int32 // k·n + i: its index in H_j
	rho int32 // its position in Model.touched, where ρ[i][k] sits
	v   complex128
}

// rhoEntry is one entry ρ[r][c] of the gradient product, as the row
// offset r·n and the column c.
type rhoEntry struct{ row, col int32 }

// Dim returns the Hilbert-space dimension.
func (m *Model) Dim() int { return 1 << m.N }

// ModelOptions tunes StandardModel.
type ModelOptions struct {
	Dt         float64  // slot width in ns (default 2)
	DriveMax   float64  // X/Y drive bound in rad/ns (default 2π·30 MHz ≈ 0.188)
	CouplerMax float64  // coupler bound in rad/ns (default 2π·5 MHz ≈ 0.0314)
	Detuning   float64  // per-qubit detuning scale in rad/ns (default 0: frame-aligned)
	Couplings  [][2]int // coupler edges; default: linear chain
}

func (o *ModelOptions) defaults(n int) {
	if o.Dt == 0 {
		o.Dt = 2
	}
	if o.DriveMax == 0 {
		o.DriveMax = 0.188
	}
	if o.CouplerMax == 0 {
		o.CouplerMax = 0.0314
	}
	if o.Couplings == nil {
		for q := 0; q < n-1; q++ {
			o.Couplings = append(o.Couplings, [2]int{q, q + 1})
		}
	}
}

// StandardModel builds an n-qubit rotating-frame model: optional static
// detunings as drift, X and Y drives per qubit, and a tunable
// XX+YY exchange coupler per edge (the paper's superconducting target
// hardware, substituted with explicit tunable couplers so that GRAPE's
// landscape stays laptop-tractable; see DESIGN.md).
func StandardModel(n int, opts ModelOptions) *Model {
	opts.defaults(n)
	dim := 1 << n
	m := &Model{N: n, Dt: opts.Dt, Drift: linalg.NewMatrix(dim, dim)}

	sx := gate.New(gate.X).Matrix()
	sy := gate.New(gate.Y).Matrix()
	sz := gate.New(gate.Z).Matrix()

	for q := 0; q < n; q++ {
		//epoc:lint-ignore floatcmp zero-value sentinel: detuning term omitted only when unset
		if opts.Detuning != 0 {
			// Alternate detuning signs so neighbours differ, like real
			// frequency-staggered transmon lattices.
			sign := 1.0
			if q%2 == 1 {
				sign = -1
			}
			term := linalg.EmbedOperator(sz, []int{q}, n).Scale(complex(sign*opts.Detuning/2, 0))
			m.Drift = m.Drift.Add(term)
		}
		m.Controls = append(m.Controls, linalg.EmbedOperator(sx, []int{q}, n).Scale(0.5))
		m.Names = append(m.Names, fmt.Sprintf("d%d.x", q))
		m.MaxAmp = append(m.MaxAmp, opts.DriveMax)
		m.Controls = append(m.Controls, linalg.EmbedOperator(sy, []int{q}, n).Scale(0.5))
		m.Names = append(m.Names, fmt.Sprintf("d%d.y", q))
		m.MaxAmp = append(m.MaxAmp, opts.DriveMax)
	}
	for _, e := range opts.Couplings {
		if e[0] < 0 || e[1] < 0 || e[0] >= n || e[1] >= n || e[0] == e[1] {
			panic(fmt.Sprintf("qoc: invalid coupling %v", e))
		}
		xx := linalg.EmbedOperator(sx, []int{e[0]}, n).Mul(linalg.EmbedOperator(sx, []int{e[1]}, n))
		yy := linalg.EmbedOperator(sy, []int{e[0]}, n).Mul(linalg.EmbedOperator(sy, []int{e[1]}, n))
		m.Controls = append(m.Controls, xx.Add(yy).Scale(0.5))
		m.Names = append(m.Names, fmt.Sprintf("g%d.%d", e[0], e[1]))
		m.MaxAmp = append(m.MaxAmp, opts.CouplerMax)
	}
	m.terms, m.touched = controlPattern(m.Controls)
	return m
}

// controlPattern records the nonzero entries of each control, and the
// entries of ρ their traces read. tr(ρ·H_j) = Σ ρ[i][k]·H_j[k][i] is
// summed for i, then k, ascending, so each control's terms are sorted
// by the position i·n + k of the ρ entry they pair with.
func controlPattern(controls []*linalg.Matrix) ([][]ctrlTerm, []rhoEntry) {
	if len(controls) == 0 {
		return nil, nil
	}
	n := controls[0].Rows
	used := make([]bool, n*n)
	for _, c := range controls {
		for h, v := range c.Data {
			//epoc:lint-ignore floatcmp structural sparsity: only exact zeros contribute nothing to a sum
			if v != 0 {
				used[(h%n)*n+h/n] = true
			}
		}
	}
	var touched []rhoEntry
	slot := make([]int32, n*n)
	for p, ok := range used {
		if ok {
			slot[p] = int32(len(touched))
			touched = append(touched, rhoEntry{row: int32(p / n * n), col: int32(p % n)})
		}
	}
	terms := make([][]ctrlTerm, len(controls))
	for j, c := range controls {
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				//epoc:lint-ignore floatcmp structural sparsity: only exact zeros contribute nothing to a sum
				if v := c.Data[k*n+i]; v != 0 {
					terms[j] = append(terms[j], ctrlTerm{h: int32(k*n + i), rho: slot[i*n+k], v: v})
				}
			}
		}
	}
	return terms, touched
}

// Propagate returns the unitary generated by the amplitude schedule
// amps[slot][control] under the model. Its slice steps come from
// stepInto, the function the GRAPE propagator cache calls, so it
// reproduces the optimizer's unitary bit for bit.
func (m *Model) Propagate(amps [][]float64) *linalg.Matrix {
	dim := m.Dim()
	u := linalg.Identity(dim)
	ham := linalg.NewMatrix(dim, dim)
	step := linalg.NewMatrix(dim, dim)
	for _, slot := range amps {
		m.stepInto(step, ham, slot)
		u = step.Mul(u)
	}
	return u
}

// stepInto writes the slice step e^{-i·H(u)·Dt} into dst. It assembles
// H(u) into the scratch matrix ham, scales it in place to -i·Dt·H(u)
// and exponentiates that with the scaling-and-squaring Padé
// linalg.ExpmInto. Each H is exponentiated once at a small norm
// (‖Dt·H‖₁ < 1 on the default device), where Padé takes its unscaled
// low-order branch: a few unrolled products and one small LU solve,
// all on the stack, far cheaper than a Jacobi eigendecomposition
// (DESIGN.md §14).
//
//epoc:hot
func (m *Model) stepInto(dst, ham *linalg.Matrix, u []float64) {
	m.slotHamiltonianInto(ham, u)
	ham.ScaleInPlace(complex(0, -m.Dt))
	linalg.ExpmInto(dst, ham)
}

// slotHamiltonianInto assembles H(u) = Drift + Σ_j u_j·H_j into the
// caller-owned dst, with no temporaries — the form every slice step
// assembles its Hamiltonian with. Each control adds only its nonzero
// entries. A skipped entry would add u_j·0, a zero of either sign,
// which changes no entry: Drift's zeros are +0, and a sum that starts
// at +0 never becomes −0.
//
//epoc:hot
func (m *Model) slotHamiltonianInto(dst *linalg.Matrix, u []float64) {
	dst.CopyFrom(m.Drift)
	for j, amp := range u {
		//epoc:lint-ignore floatcmp exact-zero sparsity fast path: unused control slots stay exactly 0
		if amp == 0 {
			continue
		}
		s := complex(amp, 0)
		for _, t := range m.terms[j] {
			dst.Data[t.h] += s * t.v
		}
	}
}
