package qoc

import (
	"math"

	"epoc/internal/linalg"
)

// propCache holds the propagator state of one GRAPE run: the per-slice
// step unitaries e^{-i·H_k·Dt} (Model.stepInto), the prefix products
// U_{k-1}···U_0 and the suffix products U_{S-1}···U_k, all in matrices
// allocated once at construction, plus the amplitude schedule each
// slice's step was last computed from.
//
// Reuse rule (DESIGN.md §14): a slice's step — and every prefix entry
// at or after the first changed slice and every suffix entry at or
// before the last changed slice — is invalidated exactly when its
// control amplitudes differ bitwise from the cached ones. Bitwise
// comparison (not tolerance) is what keeps reuse sound: a reused step
// is the very float sequence a recompute would produce, so cached and
// uncached runs are byte-identical at any worker count. In the Adam
// ascent this pays whenever slices saturate at the hardware amplitude
// bound or a warm-started schedule only locally differs; callers that
// change one slice at a time pay O(slots) products instead of O(slots)
// matrix exponentials.
type propCache struct {
	m     *Model
	slots int

	steps  []*linalg.Matrix // steps[k] = e^{-i·H(amps[k])·Dt}
	prefix []*linalg.Matrix // prefix[k] = steps[k-1]···steps[0], prefix[0] = I
	suffix []*linalg.Matrix // suffix[k] = steps[slots-1]···steps[k], suffix[slots] = I

	ham  *linalg.Matrix // slice-step assembly scratch (-i·Dt·H)
	prev [][]float64    // amplitudes each cached step was built from
	seen []bool         // slice k has ever been computed

	// stale is the highest suffix index the steps changed under since
	// the last suffixes call (-1: the suffix chain is current).
	stale int

	// stepRecomputes counts slice propagator recomputations across the
	// cache's lifetime — the counting-harness hook asserting that only
	// changed slices recompute.
	stepRecomputes int
}

// newPropCache allocates the full propagator state for a slots-slice
// schedule. All per-iteration work after this call writes into the
// matrices allocated here; the slice steps keep their own temporaries
// on the stack.
func newPropCache(m *Model, slots int) *propCache {
	dim := m.Dim()
	p := &propCache{
		m:      m,
		slots:  slots,
		steps:  make([]*linalg.Matrix, slots),
		prefix: make([]*linalg.Matrix, slots+1),
		suffix: make([]*linalg.Matrix, slots+1),
		ham:    linalg.NewMatrix(dim, dim),
		prev:   makeGrid(slots, len(m.Controls)),
		seen:   make([]bool, slots),
		stale:  -1,
	}
	for k := 0; k < slots; k++ {
		p.steps[k] = linalg.NewMatrix(dim, dim)
	}
	for k := 0; k <= slots; k++ {
		p.prefix[k] = linalg.NewMatrix(dim, dim)
		p.suffix[k] = linalg.NewMatrix(dim, dim)
	}
	setIdentity(p.prefix[0])
	setIdentity(p.suffix[slots])
	return p
}

// update refreshes the steps and prefix products for the given
// amplitude schedule, recomputing only the slices whose controls
// changed since the last call, and returns the total unitary
// U = prefix[slots]. The suffix chain waits for suffixes: only a
// gradient reads it, and the iteration that reaches the target takes
// none.
//
//epoc:hot
func (p *propCache) update(amps [][]float64) *linalg.Matrix {
	first, last := p.slots, -1
	for k := 0; k < p.slots; k++ {
		if p.seen[k] && sameAmps(p.prev[k], amps[k]) {
			continue
		}
		p.m.stepInto(p.steps[k], p.ham, amps[k])
		copy(p.prev[k], amps[k])
		p.seen[k] = true
		p.stepRecomputes++
		if k < first {
			first = k
		}
		last = k
	}
	// Prefix entries before the first changed slice are still valid;
	// rebuild the rest. Suffix entries after the last changed slice
	// stay valid too, and suffixes rebuilds the others.
	for k := first; k < p.slots; k++ {
		linalg.MulInto(p.prefix[k+1], p.steps[k], p.prefix[k])
	}
	p.stale = max(p.stale, last)
	return p.prefix[p.slots]
}

// suffixes rebuilds the suffix products the steps invalidated since
// the last call, from the highest changed slice down to suffix[0].
//
//epoc:hot
func (p *propCache) suffixes() {
	for k := p.stale; k >= 0; k-- {
		linalg.MulInto(p.suffix[k], p.suffix[k+1], p.steps[k])
	}
	p.stale = -1
}

// sameAmps reports whether a slice's control amplitudes are bitwise
// unchanged. NaN compares unequal to itself, so a NaN amplitude can
// never be wrongly reused.
func sameAmps(a, b []float64) bool {
	for i := range a {
		//epoc:lint-ignore floatcmp bitwise cache-invalidation key: reuse must be exact, tolerance would fork cached and uncached trajectories
		if a[i] != b[i] || math.Signbit(a[i]) != math.Signbit(b[i]) {
			return false
		}
	}
	return true
}

// setIdentity clears m and writes the identity.
func setIdentity(m *linalg.Matrix) {
	for i := range m.Data {
		m.Data[i] = 0
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Rows+i] = 1
	}
}
