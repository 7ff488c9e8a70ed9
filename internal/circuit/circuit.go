// Package circuit defines the quantum circuit intermediate
// representation used by every compiler pass: a sequence of gate
// applications on named qubits, with depth and critical-path
// analysis, full-register unitary construction, and inversion.
//
// Qubit 0 is the least-significant bit of a basis-state index.
package circuit

import (
	"fmt"
	"strings"

	"epoc/internal/gate"
	"epoc/internal/linalg"
)

// Op is one gate application. Qubits[i] is the circuit qubit bound to
// gate-local qubit i (so for CX, Qubits[0] is the control).
type Op struct {
	G      gate.Gate
	Qubits []int
}

// NewOp builds an op, validating arity.
func NewOp(g gate.Gate, qubits ...int) Op {
	if len(qubits) != g.Qubits() {
		panic(fmt.Sprintf("circuit: gate %s wants %d qubits, got %v", g, g.Qubits(), qubits))
	}
	seen := map[int]bool{}
	for _, q := range qubits {
		if q < 0 || seen[q] {
			panic(fmt.Sprintf("circuit: invalid qubit list %v", qubits))
		}
		seen[q] = true
	}
	return Op{G: g, Qubits: append([]int(nil), qubits...)}
}

// String renders the op in QASM-like syntax.
func (o Op) String() string {
	qs := make([]string, len(o.Qubits))
	for i, q := range o.Qubits {
		qs[i] = fmt.Sprintf("q[%d]", q)
	}
	return fmt.Sprintf("%s %s", o.G, strings.Join(qs, ","))
}

// Circuit is an ordered list of ops over NumQubits qubits.
type Circuit struct {
	NumQubits int
	Ops       []Op
}

// New returns an empty circuit on n qubits.
func New(n int) *Circuit {
	if n < 0 {
		panic("circuit: negative qubit count")
	}
	return &Circuit{NumQubits: n}
}

// Append adds an op built from a gate and its qubits.
func (c *Circuit) Append(g gate.Gate, qubits ...int) *Circuit {
	op := NewOp(g, qubits...)
	for _, q := range qubits {
		if q >= c.NumQubits {
			panic(fmt.Sprintf("circuit: qubit %d out of range (n=%d)", q, c.NumQubits))
		}
	}
	c.Ops = append(c.Ops, op)
	return c
}

// AppendOp adds a pre-built op, validating qubit range.
func (c *Circuit) AppendOp(op Op) *Circuit {
	for _, q := range op.Qubits {
		if q < 0 || q >= c.NumQubits {
			panic(fmt.Sprintf("circuit: qubit %d out of range (n=%d)", q, c.NumQubits))
		}
	}
	c.Ops = append(c.Ops, op)
	return c
}

// Clone returns a deep copy.
func (c *Circuit) Clone() *Circuit {
	out := New(c.NumQubits)
	out.Ops = make([]Op, len(c.Ops))
	for i, op := range c.Ops {
		out.Ops[i] = Op{G: op.G, Qubits: append([]int(nil), op.Qubits...)}
	}
	return out
}

// Len returns the number of ops.
func (c *Circuit) Len() int { return len(c.Ops) }

// CountKind returns how many ops have the given gate kind.
func (c *Circuit) CountKind(k gate.Kind) int {
	n := 0
	for _, op := range c.Ops {
		if op.G.Kind == k {
			n++
		}
	}
	return n
}

// TwoQubitCount returns the number of ops touching two or more qubits.
func (c *Circuit) TwoQubitCount() int {
	n := 0
	for _, op := range c.Ops {
		if len(op.Qubits) >= 2 {
			n++
		}
	}
	return n
}

// Depth returns the circuit depth: the length of the longest
// qubit-dependency chain, with every gate costing one layer.
func (c *Circuit) Depth() int {
	front := make([]int, c.NumQubits)
	maxDepth := 0
	for _, op := range c.Ops {
		layer := 0
		for _, q := range op.Qubits {
			if front[q] > layer {
				layer = front[q]
			}
		}
		layer++
		for _, q := range op.Qubits {
			front[q] = layer
		}
		if layer > maxDepth {
			maxDepth = layer
		}
	}
	return maxDepth
}

// CriticalPath returns the weighted depth of the circuit: the longest
// qubit-dependency chain where each op costs weight(op). This is the
// latency model used for pulse schedules where each op has a duration.
func (c *Circuit) CriticalPath(weight func(Op) float64) float64 {
	front := make([]float64, c.NumQubits)
	var max float64
	for _, op := range c.Ops {
		start := 0.0
		for _, q := range op.Qubits {
			if front[q] > start {
				start = front[q]
			}
		}
		end := start + weight(op)
		for _, q := range op.Qubits {
			front[q] = end
		}
		if end > max {
			max = end
		}
	}
	return max
}

// Unitary returns the full 2^n × 2^n unitary of the circuit. It is
// intended for small n (verification, block unitaries); the cost is
// O(len(Ops) · 4^n).
func (c *Circuit) Unitary() *linalg.Matrix {
	dim := 1 << c.NumQubits
	u := linalg.Identity(dim)
	for _, op := range c.Ops {
		g := linalg.EmbedOperator(op.G.Matrix(), op.Qubits, c.NumQubits)
		u = g.Mul(u)
	}
	return u
}

// Inverse returns the circuit implementing U† (ops reversed and
// daggered).
func (c *Circuit) Inverse() *Circuit {
	out := New(c.NumQubits)
	for i := len(c.Ops) - 1; i >= 0; i-- {
		op := c.Ops[i]
		out.Append(op.G.Dagger(), op.Qubits...)
	}
	return out
}

// String renders the circuit one op per line.
func (c *Circuit) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "circuit(%d qubits, %d ops)\n", c.NumQubits, len(c.Ops))
	for _, op := range c.Ops {
		b.WriteString("  " + op.String() + "\n")
	}
	return b.String()
}
