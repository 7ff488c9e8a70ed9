package partition

import (
	"testing"

	"epoc/internal/circuit"
	"epoc/internal/gate"
)

// TestPartitionEdgeCases pins the boundary behavior of Algorithm 1:
// degenerate circuits, blocks landing exactly on the MaxQubits and
// MaxGates limits, and bridge emission. Every case must also pass
// Validate and lower through ToBlockCircuit without losing ops.
func TestPartitionEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		build   func() *circuit.Circuit
		opts    Options
		blocks  int
		bridges int
		// maxBlockQubits/maxBlockGates bound the non-bridge blocks.
		maxBlockQubits int
		maxBlockGates  int
	}{
		{
			name:   "empty circuit",
			build:  func() *circuit.Circuit { return circuit.New(3) },
			blocks: 0,
		},
		{
			name: "single-qubit circuit",
			build: func() *circuit.Circuit {
				c := circuit.New(1)
				c.Append(gate.New(gate.H), 0)
				c.Append(gate.New(gate.T), 0)
				c.Append(gate.New(gate.H), 0)
				return c
			},
			blocks:         1,
			maxBlockQubits: 1,
			maxBlockGates:  3,
		},
		{
			name: "block exactly at MaxGates",
			build: func() *circuit.Circuit {
				// 4 gates on one pair with MaxGates: 4 → exactly one
				// full block, no spill into a second.
				c := circuit.New(2)
				for i := 0; i < 4; i++ {
					c.Append(gate.New(gate.CX), 0, 1)
				}
				return c
			},
			opts:           Options{MaxGates: 4},
			blocks:         1,
			maxBlockQubits: 2,
			maxBlockGates:  4,
		},
		{
			name: "one past MaxGates splits vertically",
			build: func() *circuit.Circuit {
				c := circuit.New(2)
				for i := 0; i < 5; i++ {
					c.Append(gate.New(gate.CX), 0, 1)
				}
				return c
			},
			opts:           Options{MaxGates: 4},
			blocks:         2,
			maxBlockQubits: 2,
			maxBlockGates:  4,
		},
		{
			name: "block exactly at MaxQubits",
			build: func() *circuit.Circuit {
				// A 3-qubit chain fits one group when MaxQubits is 3.
				c := circuit.New(3)
				c.Append(gate.New(gate.CX), 0, 1)
				c.Append(gate.New(gate.CX), 1, 2)
				c.Append(gate.New(gate.CX), 0, 2)
				return c
			},
			opts:           Options{MaxQubits: 3},
			blocks:         1,
			maxBlockQubits: 3,
			maxBlockGates:  3,
		},
		{
			name: "group overflow forces bridges",
			build: func() *circuit.Circuit {
				// With MaxQubits: 2 a 3-qubit chain cannot live in one
				// group, so cross-group ops become bridge blocks.
				c := circuit.New(3)
				c.Append(gate.New(gate.CX), 0, 1)
				c.Append(gate.New(gate.CX), 1, 2)
				c.Append(gate.New(gate.CX), 0, 1)
				return c
			},
			opts:           Options{MaxQubits: 2},
			blocks:         3,
			bridges:        1,
			maxBlockQubits: 2,
			maxBlockGates:  2,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.build()
			blocks := Partition(c, tc.opts)
			if len(blocks) != tc.blocks {
				t.Fatalf("got %d blocks, want %d: %+v", len(blocks), tc.blocks, blocks)
			}
			bridges := 0
			for i, b := range blocks {
				if b.Bridge {
					bridges++
					continue
				}
				if len(b.Qubits) == 0 || b.Local.Len() == 0 {
					t.Fatalf("block %d is empty: %+v", i, b)
				}
				if tc.maxBlockQubits > 0 && len(b.Qubits) > tc.maxBlockQubits {
					t.Fatalf("block %d spans %d qubits, cap %d", i, len(b.Qubits), tc.maxBlockQubits)
				}
				if tc.maxBlockGates > 0 && b.Local.Len() > tc.maxBlockGates {
					t.Fatalf("block %d has %d gates, cap %d", i, b.Local.Len(), tc.maxBlockGates)
				}
			}
			if bridges != tc.bridges {
				t.Fatalf("got %d bridge blocks, want %d", bridges, tc.bridges)
			}
			if err := Validate(c, blocks); err != nil {
				t.Fatalf("partition not a faithful reordering: %v", err)
			}
			bc := ToBlockCircuit(c.NumQubits, blocks)
			if bc.NumQubits != c.NumQubits {
				t.Fatalf("block circuit width %d, want %d", bc.NumQubits, c.NumQubits)
			}
			if bc.Len() != len(blocks) {
				t.Fatalf("block circuit has %d ops for %d blocks", bc.Len(), len(blocks))
			}
		})
	}
}

// TestPartitionBridgeBlockShape pins the invariants synthesis relies
// on: a bridge block carries exactly its one op, with global qubit
// indices recoverable through Qubits.
func TestPartitionBridgeBlockShape(t *testing.T) {
	c := circuit.New(4)
	c.Append(gate.New(gate.CX), 0, 1)
	c.Append(gate.New(gate.CX), 2, 3)
	c.Append(gate.New(gate.CX), 1, 2) // crosses the {0,1} / {2,3} groups
	blocks := Partition(c, Options{MaxQubits: 2})
	var bridge *Block
	for i := range blocks {
		if blocks[i].Bridge {
			if bridge != nil {
				t.Fatal("expected exactly one bridge block")
			}
			bridge = &blocks[i]
		}
	}
	if bridge == nil {
		t.Fatal("no bridge block emitted for a cross-group op")
	}
	if bridge.Local.Len() != 1 {
		t.Fatalf("bridge block carries %d ops, want 1", bridge.Local.Len())
	}
	op := bridge.Local.Ops[0]
	globals := make([]int, len(op.Qubits))
	for i, lq := range op.Qubits {
		globals[i] = bridge.Qubits[lq]
	}
	if globals[0] != 1 || globals[1] != 2 {
		t.Fatalf("bridge op remapped to %v, want [1 2]", globals)
	}
}
