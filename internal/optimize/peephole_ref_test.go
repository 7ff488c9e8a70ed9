package optimize

import (
	"fmt"
	"math"

	"epoc/internal/circuit"
	"epoc/internal/gate"
)

// referencePeephole is the restart-from-scratch Peephole the
// incremental rewriter replaced: each pass finds the first rewrite by a
// full scan of the op list, applies it by copying the list, and the
// loop alternates one cancel/merge and one H-conjugation rewrite until
// neither finds anything. It stays here as the differential reference:
// Peephole must reproduce its output op for op.
func referencePeephole(c *circuit.Circuit) *circuit.Circuit {
	ops := append([]circuit.Op(nil), c.Ops...)
	for changed := true; changed; {
		changed = false
		if next, ok := referenceCancelPass(ops); ok {
			ops = next
			changed = true
		}
		if next, ok := referenceHConjugationPass(ops); ok {
			ops = next
			changed = true
		}
	}
	out := circuit.New(c.NumQubits)
	out.Ops = ops
	return out
}

// referenceCancelPass finds one cancel/merge opportunity and applies it.
func referenceCancelPass(ops []circuit.Op) ([]circuit.Op, bool) {
	for i := 0; i < len(ops); i++ {
		for j := i + 1; j < len(ops); j++ {
			if !overlap(ops[i], ops[j]) {
				continue
			}
			if merged, drop := tryMerge(ops[i], ops[j]); drop || merged != nil {
				out := make([]circuit.Op, 0, len(ops))
				out = append(out, ops[:i]...)
				if merged != nil {
					out = append(out, *merged)
				}
				out = append(out, ops[i+1:j]...)
				out = append(out, ops[j+1:]...)
				return out, true
			}
			if !commutes(ops[i], ops[j]) {
				break
			}
		}
	}
	return ops, false
}

// referenceHConjugationPass rewrites the first H·RZ(θ)·H or H·RX(θ)·H
// that is consecutive in one qubit's timeline.
func referenceHConjugationPass(ops []circuit.Op) ([]circuit.Op, bool) {
	for i := 0; i < len(ops); i++ {
		if ops[i].G.Kind != gate.H {
			continue
		}
		q := ops[i].Qubits[0]
		j := referenceNextOnQubit(ops, i, q)
		if j < 0 {
			continue
		}
		mid := ops[j]
		if (mid.G.Kind != gate.RZ && mid.G.Kind != gate.RX) || mid.Qubits[0] != q {
			continue
		}
		k := referenceNextOnQubit(ops, j, q)
		if k < 0 || ops[k].G.Kind != gate.H {
			continue
		}
		newKind := gate.RX
		if mid.G.Kind == gate.RX {
			newKind = gate.RZ
		}
		out := make([]circuit.Op, 0, len(ops)-2)
		for idx, op := range ops {
			switch idx {
			case i, k:
			case j:
				out = append(out, circuit.NewOp(gate.New(newKind, mid.G.Params[0]), q))
			default:
				out = append(out, op)
			}
		}
		return out, true
	}
	return ops, false
}

// referenceNextOnQubit returns the index of the next op after i that
// touches q, whatever its arity, or -1.
func referenceNextOnQubit(ops []circuit.Op, i, q int) int {
	for j := i + 1; j < len(ops); j++ {
		for _, oq := range ops[j].Qubits {
			if oq == q {
				return j
			}
		}
	}
	return -1
}

// overlap reports whether two ops share a qubit.
func overlap(a, b circuit.Op) bool {
	for _, qa := range a.Qubits {
		for _, qb := range b.Qubits {
			if qa == qb {
				return true
			}
		}
	}
	return false
}

// sameOps reports the first op where two circuits differ: kind, qubits
// and every parameter bit for bit.
func sameOps(got, want *circuit.Circuit) error {
	if got.NumQubits != want.NumQubits || len(got.Ops) != len(want.Ops) {
		return fmt.Errorf("%d qubits %d ops, reference %d qubits %d ops",
			got.NumQubits, len(got.Ops), want.NumQubits, len(want.Ops))
	}
	for i, op := range got.Ops {
		ref := want.Ops[i]
		same := op.G.Kind == ref.G.Kind && len(op.Qubits) == len(ref.Qubits) && len(op.G.Params) == len(ref.G.Params)
		for k := 0; same && k < len(op.Qubits); k++ {
			same = op.Qubits[k] == ref.Qubits[k]
		}
		for k := 0; same && k < len(op.G.Params); k++ {
			same = math.Float64bits(op.G.Params[k]) == math.Float64bits(ref.G.Params[k])
		}
		if !same {
			return fmt.Errorf("op %d: %v, reference %v", i, op, ref)
		}
	}
	return nil
}
