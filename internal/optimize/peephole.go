package optimize

import (
	"math"

	"epoc/internal/circuit"
	"epoc/internal/gate"
)

// Peephole repeatedly applies local rewrites — inverse-pair
// cancellation, rotation merging, H·R·H basis flips — using gate
// commutation to bring partners together, until a fixed point. The
// result implements the same unitary up to global phase.
//
// The rewrite order is fixed: each round applies the first cancel or
// merge in scan order, then the first H-conjugation, and the loop ends
// at a round where neither finds anything. The scans resume from
// cursors instead of restarting (see rewriter), which yields the same
// rewrite sequence, and so the same output, as rescanning from the
// start after every rewrite (DESIGN.md §14).
func Peephole(c *circuit.Circuit) *circuit.Circuit {
	r := newRewriter(append([]circuit.Op(nil), c.Ops...))
	for {
		changed := r.cancelStep()
		if r.hConjugationStep() {
			changed = true
		}
		if !changed {
			break
		}
	}
	out := circuit.New(c.NumQubits)
	out.Ops = r.live()
	return out
}

// rewriter is Peephole's working state. Rewrites only delete ops or
// replace an op in place by one on the same qubits, so an op's index
// never changes and index order stays circuit order. Each (op, qubit)
// pair is a slot, and each qubit's slots are linked into a timeline.
//
// Two cursors record how far the scans have got: no live op before
// cancelAt has a cancel/merge partner, and no live op before hAt opens
// an H·R·H pattern. A rewrite moves each cursor back only past the ops
// whose scan could now come out differently (invalidate). The cancel
// scan also remembers each op's result, so when its cursor falls back
// it rescans only the ops the rewrite invalidated.
type rewriter struct {
	ops   []circuit.Op
	dead  []bool
	first []int // op i owns slots first[i] .. first[i+1]-1, one per qubit
	owner []int // the op of each slot
	prev  []int // previous slot on the same qubit's timeline, or -1
	next  []int // next slot on the same qubit's timeline, or -1
	// reach[i] is where op i's cancel scan stopped without finding a
	// partner: the index of the first op that does not commute with it,
	// or len(ops) when the scan ran off the end. It is -1 while op i
	// has not been scanned since it last changed or was invalidated;
	// every live op before cancelAt has reach ≥ 0.
	reach    []int
	cancelAt int
	hAt      int
	walk     []int // scan's per-qubit timeline positions
}

func newRewriter(ops []circuit.Op) *rewriter {
	r := &rewriter{
		ops:   ops,
		dead:  make([]bool, len(ops)),
		first: make([]int, len(ops)+1),
		reach: make([]int, len(ops)),
	}
	width := 0
	for i, op := range ops {
		r.first[i+1] = r.first[i] + len(op.Qubits)
		r.reach[i] = -1
		for _, q := range op.Qubits {
			width = max(width, q+1)
		}
	}
	slots := r.first[len(ops)]
	r.owner = make([]int, slots)
	r.prev = make([]int, slots)
	r.next = make([]int, slots)
	last := make([]int, width)
	for q := range last {
		last[q] = -1
	}
	for i, op := range ops {
		for k, q := range op.Qubits {
			s := r.first[i] + k
			r.owner[s] = i
			r.prev[s] = last[q]
			r.next[s] = -1
			if last[q] >= 0 {
				r.next[last[q]] = s
			}
			last[q] = s
		}
	}
	return r
}

// cancelStep applies the first cancel/merge at or after cancelAt.
func (r *rewriter) cancelStep() bool {
	for ; r.cancelAt < len(r.ops); r.cancelAt++ {
		i := r.cancelAt
		if r.dead[i] || r.reach[i] >= 0 {
			continue
		}
		j, merged, reach := r.scan(i)
		if j < 0 {
			r.reach[i] = reach
			continue
		}
		r.invalidate(i, merged != nil)
		r.invalidate(j, false)
		if merged != nil {
			r.ops[i] = *merged
		} else {
			r.remove(i)
		}
		r.remove(j)
		return true
	}
	return false
}

// scan looks for op i's cancel/merge partner: the first later op that
// shares a qubit with i and cancels or merges with it, where every op
// in between that shares a qubit with i commutes with it. Ops on other
// qubits are never visited: scan follows i's qubit timelines in step,
// always taking the smallest next index. It returns the partner j (or
// -1), the merged op (nil when the pair cancels outright), and the
// index where the walk stopped.
func (r *rewriter) scan(i int) (j int, merged *circuit.Op, reach int) {
	a := r.ops[i]
	r.walk = r.walk[:0]
	for s := r.first[i]; s < r.first[i+1]; s++ {
		r.walk = append(r.walk, r.next[s])
	}
	for {
		j = -1
		for _, s := range r.walk {
			if s >= 0 && (j < 0 || r.owner[s] < j) {
				j = r.owner[s]
			}
		}
		if j < 0 {
			return -1, nil, len(r.ops)
		}
		for k, s := range r.walk {
			if s >= 0 && r.owner[s] == j {
				r.walk[k] = r.next[s]
			}
		}
		if merged, drop := tryMerge(a, r.ops[j]); drop || merged != nil {
			return j, merged, j
		}
		if !commutes(a, r.ops[j]) {
			return -1, nil, j
		}
	}
}

// hConjugationStep rewrites the first H·RZ(θ)·H → RX(θ) or
// H·RX(θ)·H → RZ(θ), at or after hAt, whose three ops are consecutive
// on one qubit's timeline.
func (r *rewriter) hConjugationStep() bool {
	for ; r.hAt < len(r.ops); r.hAt++ {
		i := r.hAt
		if r.dead[i] || r.ops[i].G.Kind != gate.H {
			continue
		}
		// The op after a slot on its timeline is the next op touching
		// that qubit, whatever its arity: a multi-qubit op there is
		// taken as the middle (or closing) op and fails the kind test,
		// so it ends the pattern rather than being stepped over.
		sj := r.next[r.first[i]]
		if sj < 0 {
			continue
		}
		j := r.owner[sj]
		mid := r.ops[j]
		if mid.G.Kind != gate.RZ && mid.G.Kind != gate.RX {
			continue
		}
		sk := r.next[sj]
		if sk < 0 || r.ops[r.owner[sk]].G.Kind != gate.H {
			continue
		}
		k := r.owner[sk]
		newKind := gate.RX
		if mid.G.Kind == gate.RX {
			newKind = gate.RZ
		}
		r.invalidate(i, false)
		r.invalidate(j, true)
		r.invalidate(k, false)
		r.ops[j] = circuit.NewOp(gate.New(newKind, mid.G.Params[0]), mid.Qubits[0])
		r.remove(i)
		r.remove(k)
		return true
	}
	return false
}

// invalidate moves the cursors back before every op whose scan may
// come out differently once op c is replaced in place (kept) or
// removed. It must run before any op of the rewrite is unlinked, so it
// walks the timelines the earlier scans saw.
//
//   - A cancel scan from x visits c only if x shares a qubit with c and
//     x < c ≤ reach[x]: each such x is marked for a rescan (reach -1),
//     and the cancel cursor falls back to the earliest of them.
//   - An H·R·H match at x reads x and the next two ops on x's qubit, so
//     only c itself and the two ops before it on each of its timelines
//     can change: the H cursor falls back to the earliest of those.
func (r *rewriter) invalidate(c int, kept bool) {
	if kept {
		r.reach[c] = -1
		r.cancelAt = min(r.cancelAt, c)
		r.hAt = min(r.hAt, c)
	}
	for s := r.first[c]; s < r.first[c+1]; s++ {
		steps := 0
		for p := r.prev[s]; p >= 0; p = r.prev[p] {
			x := r.owner[p]
			if steps < 2 {
				r.hAt = min(r.hAt, x)
				steps++
			}
			if r.reach[x] >= c {
				r.reach[x] = -1
				r.cancelAt = min(r.cancelAt, x)
			}
		}
	}
}

// remove deletes op c, unlinking it from its qubits' timelines.
func (r *rewriter) remove(c int) {
	r.dead[c] = true
	for s := r.first[c]; s < r.first[c+1]; s++ {
		p, n := r.prev[s], r.next[s]
		if p >= 0 {
			r.next[p] = n
		}
		if n >= 0 {
			r.prev[n] = p
		}
	}
}

// live compacts the surviving ops, in circuit order, into the front of
// ops and returns them.
func (r *rewriter) live() []circuit.Op {
	out := r.ops[:0]
	for i, op := range r.ops {
		if !r.dead[i] {
			out = append(out, op)
		}
	}
	return out
}

// tryMerge returns (replacement, true) if a and b cancel entirely, or
// (merged op, false) if they merge into one op; (nil, false) otherwise.
func tryMerge(a, b circuit.Op) (*circuit.Op, bool) {
	if !sameQubits(a, b) {
		// CZ and SWAP are symmetric: allow reversed operands.
		if (a.G.Kind == gate.CZ || a.G.Kind == gate.SWAP) && a.G.Kind == b.G.Kind &&
			len(a.Qubits) == 2 && a.Qubits[0] == b.Qubits[1] && a.Qubits[1] == b.Qubits[0] {
			return nil, true
		}
		return nil, false
	}
	if a.G.Kind != b.G.Kind {
		return nil, false
	}
	switch a.G.Kind {
	case gate.H, gate.X, gate.Y, gate.Z, gate.CX, gate.CY, gate.CZ, gate.CH, gate.SWAP, gate.CCX, gate.CSWP:
		return nil, true
	case gate.S:
		op := circuit.NewOp(gate.New(gate.Z), a.Qubits[0])
		return &op, false
	case gate.Sdg:
		op := circuit.NewOp(gate.New(gate.Z), a.Qubits[0])
		return &op, false
	case gate.T:
		op := circuit.NewOp(gate.New(gate.S), a.Qubits[0])
		return &op, false
	case gate.Tdg:
		op := circuit.NewOp(gate.New(gate.Sdg), a.Qubits[0])
		return &op, false
	case gate.RX, gate.RY, gate.RZ, gate.P, gate.U1, gate.CP, gate.RXX, gate.RZZ:
		sum := a.G.Params[0] + b.G.Params[0]
		if zeroMod2Pi(sum) {
			return nil, true
		}
		op := circuit.NewOp(gate.New(a.G.Kind, normAngle(sum)), a.Qubits...)
		return &op, false
	case gate.CRX, gate.CRY, gate.CRZ:
		// A controlled rotation has period 4π, not 2π: CR(θ+2π) is
		// CR(θ) followed by Z on the control. So the pair cancels only
		// when sum/2 ≡ 0 (mod 2π).
		sum := a.G.Params[0] + b.G.Params[0]
		if zeroMod2Pi(sum / 2) {
			return nil, true
		}
		op := circuit.NewOp(gate.New(a.G.Kind, normAngle4Pi(sum)), a.Qubits...)
		return &op, false
	}
	return nil, false
}

func sameQubits(a, b circuit.Op) bool {
	if len(a.Qubits) != len(b.Qubits) {
		return false
	}
	for i := range a.Qubits {
		if a.Qubits[i] != b.Qubits[i] {
			return false
		}
	}
	return true
}

// commutes reports whether two overlapping ops commute, using standard
// structural rules (both diagonal; RZ-like on a CX control; RX/X on a
// CX target; CXs sharing only controls or only targets).
func commutes(a, b circuit.Op) bool {
	if a.G.IsDiagonal() && b.G.IsDiagonal() {
		return true
	}
	if ok, done := cxCommute(a, b); done {
		return ok
	}
	if ok, done := cxCommute(b, a); done {
		return ok
	}
	return false
}

// cxCommute handles the cases where a is a CX; done=false means the
// rule does not apply.
func cxCommute(a, b circuit.Op) (ok, done bool) {
	if a.G.Kind != gate.CX {
		return false, false
	}
	ctrl, tgt := a.Qubits[0], a.Qubits[1]
	if len(b.Qubits) == 1 {
		q := b.Qubits[0]
		if q == ctrl {
			return b.G.IsDiagonal(), true
		}
		if q == tgt {
			k := b.G.Kind
			return k == gate.X || k == gate.RX || k == gate.SX || k == gate.SXdg || k == gate.I, true
		}
		return false, true
	}
	if b.G.Kind == gate.CX {
		bc, bt := b.Qubits[0], b.Qubits[1]
		if ctrl == bc && tgt != bt {
			return true, true
		}
		if tgt == bt && ctrl != bc {
			return true, true
		}
		if ctrl == bc && tgt == bt {
			return true, true // identical CX commutes with itself
		}
		return false, true
	}
	return false, false
}

// MergeSingleQubitRuns collapses every maximal run of 1-qubit gates on
// a qubit into at most one U3 gate. Runs whose product is the identity
// (up to phase) vanish entirely.
func MergeSingleQubitRuns(c *circuit.Circuit) *circuit.Circuit {
	out := circuit.New(c.NumQubits)
	type run struct {
		ops []circuit.Op
	}
	pending := make(map[int]*run)
	flush := func(q int) {
		r := pending[q]
		if r == nil {
			return
		}
		delete(pending, q)
		if len(r.ops) == 0 {
			return
		}
		// Product of the run (later ops multiply on the left).
		u := r.ops[0].G.Matrix()
		for _, op := range r.ops[1:] {
			u = op.G.Matrix().Mul(u)
		}
		_, beta, gamma, delta := zyzAngles(u)
		if zeroMod2Pi(beta) && zeroMod2Pi(gamma) && zeroMod2Pi(delta) {
			return // identity up to phase
		}
		out.Append(gate.New(gate.U3, gamma, beta, delta), q)
	}
	for _, op := range c.Ops {
		if len(op.Qubits) == 1 && !op.G.IsBlock() {
			q := op.Qubits[0]
			if pending[q] == nil {
				pending[q] = &run{}
			}
			pending[q].ops = append(pending[q].ops, op)
			continue
		}
		for _, q := range op.Qubits {
			flush(q)
		}
		out.AppendOp(op)
	}
	for q := 0; q < c.NumQubits; q++ {
		flush(q)
	}
	return out
}

func normAngle(theta float64) float64 {
	m := math.Mod(theta, 2*math.Pi)
	if m > math.Pi {
		m -= 2 * math.Pi
	}
	if m < -math.Pi {
		m += 2 * math.Pi
	}
	return m
}

// normAngle4Pi maps θ into (−2π, 2π], one period of a controlled
// rotation.
func normAngle4Pi(theta float64) float64 {
	m := math.Mod(theta, 4*math.Pi)
	if m > 2*math.Pi {
		m -= 4 * math.Pi
	}
	if m <= -2*math.Pi {
		m += 4 * math.Pi
	}
	return m
}
