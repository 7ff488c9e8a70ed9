// Package route maps logical circuits onto a device's coupler
// topology, inserting SWAPs so every multi-qubit gate acts on adjacent
// physical qubits — the "mapped according to the target quantum
// computer's architecture" step of the paper's compilation workflow
// (Figure 1, citing Li et al.'s SABRE).
//
// The router is a greedy lookahead heuristic: each blocked two-qubit
// gate is unblocked by the SWAP that most reduces the summed distance
// of the gates in a sliding window of upcoming ops.
package route

import (
	"fmt"
	"sort"

	"epoc/internal/circuit"
	"epoc/internal/gate"
)

// Topology is an undirected coupling graph over physical qubits.
type Topology struct {
	N    int
	adj  map[int]map[int]bool
	dist [][]int
}

// NewTopology builds a topology from an edge list.
func NewTopology(n int, edges [][2]int) *Topology {
	t := &Topology{N: n, adj: map[int]map[int]bool{}}
	for q := 0; q < n; q++ {
		t.adj[q] = map[int]bool{}
	}
	for _, e := range edges {
		if e[0] < 0 || e[1] < 0 || e[0] >= n || e[1] >= n || e[0] == e[1] {
			panic(fmt.Sprintf("route: invalid edge %v", e))
		}
		t.adj[e[0]][e[1]] = true
		t.adj[e[1]][e[0]] = true
	}
	t.computeDistances()
	return t
}

// Linear returns a nearest-neighbour chain topology.
func Linear(n int) *Topology {
	var edges [][2]int
	for q := 0; q < n-1; q++ {
		edges = append(edges, [2]int{q, q + 1})
	}
	return NewTopology(n, edges)
}

// Grid returns a rows×cols lattice topology.
func Grid(rows, cols int) *Topology {
	var edges [][2]int
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, [2]int{id(r, c), id(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, [2]int{id(r, c), id(r+1, c)})
			}
		}
	}
	return NewTopology(rows*cols, edges)
}

// computeDistances runs BFS from every vertex. Neighbors are expanded
// in sorted order so the traversal (and anything that later keys off
// it) is independent of map iteration order.
func (t *Topology) computeDistances() {
	t.dist = make([][]int, t.N)
	sorted := make([][]int, t.N)
	for v := 0; v < t.N; v++ {
		sorted[v] = t.Neighbors(v)
	}
	for s := 0; s < t.N; s++ {
		d := make([]int, t.N)
		for i := range d {
			d[i] = -1
		}
		d[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range sorted[v] {
				if d[w] == -1 {
					d[w] = d[v] + 1
					queue = append(queue, w)
				}
			}
		}
		t.dist[s] = d
	}
}

// Adjacent reports whether two physical qubits share a coupler.
func (t *Topology) Adjacent(a, b int) bool { return t.adj[a][b] }

// Neighbors returns the sorted coupler neighbors of a physical qubit.
func (t *Topology) Neighbors(q int) []int {
	out := make([]int, 0, len(t.adj[q]))
	for w := range t.adj[q] {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}

// Distance returns the coupling-graph distance (-1 if disconnected).
func (t *Topology) Distance(a, b int) int { return t.dist[a][b] }

// Result carries a routed circuit and its mapping metadata.
type Result struct {
	Circuit *circuit.Circuit
	// InitialLayout[logical] = physical qubit at circuit start.
	InitialLayout []int
	// FinalLayout[logical] = physical qubit at circuit end.
	FinalLayout []int
	SwapsAdded  int
}

// Route maps a logical circuit onto the topology with a trivial
// initial layout (logical i → physical i) and greedy lookahead SWAP
// insertion. Gates on more than two qubits must be decomposed first.
func Route(c *circuit.Circuit, topo *Topology) (*Result, error) {
	if c.NumQubits > topo.N {
		return nil, fmt.Errorf("route: circuit needs %d qubits, topology has %d", c.NumQubits, topo.N)
	}
	for q := 0; q < topo.N; q++ {
		for w := 0; w < topo.N; w++ {
			if topo.dist[q][w] == -1 {
				return nil, fmt.Errorf("route: topology is disconnected")
			}
		}
	}
	// phys[logical] = physical, logi[physical] = logical.
	phys := make([]int, topo.N)
	logi := make([]int, topo.N)
	for i := range phys {
		phys[i] = i
		logi[i] = i
	}
	out := circuit.New(topo.N)
	res := &Result{InitialLayout: append([]int(nil), phys[:c.NumQubits]...)}

	const lookahead = 8
	for i, op := range c.Ops {
		switch len(op.Qubits) {
		case 1:
			out.Append(op.G, phys[op.Qubits[0]])
			continue
		case 2:
		default:
			return nil, fmt.Errorf("route: op %s has %d qubits; decompose before routing", op.G, len(op.Qubits))
		}
		a, b := op.Qubits[0], op.Qubits[1]
		for !topo.Adjacent(phys[a], phys[b]) {
			// Choose the SWAP (on an edge touching either endpoint) that
			// minimizes the lookahead cost.
			best := [2]int{-1, -1}
			bestCost := 1 << 30
			for _, pq := range []int{phys[a], phys[b]} {
				for _, nb := range topo.Neighbors(pq) {
					cost := swapCost(c.Ops[i:], phys, topo, pq, nb, lookahead)
					if cost < bestCost {
						bestCost = cost
						best = [2]int{pq, nb}
					}
				}
			}
			applySwap(out, phys, logi, best[0], best[1])
			res.SwapsAdded++
		}
		out.Append(op.G, phys[a], phys[b])
	}
	res.Circuit = out
	res.FinalLayout = append([]int(nil), phys[:c.NumQubits]...)
	return res, nil
}

// swapCost evaluates the summed distances of the next few two-qubit
// gates if the physical qubits p1, p2 were swapped.
func swapCost(upcoming []circuit.Op, phys []int, topo *Topology, p1, p2 int, window int) int {
	// Build the hypothetical physical positions.
	tryPhys := func(logical int) int {
		p := phys[logical]
		if p == p1 {
			return p2
		}
		if p == p2 {
			return p1
		}
		return p
	}
	cost := 0
	count := 0
	for _, op := range upcoming {
		if len(op.Qubits) != 2 {
			continue
		}
		d := topo.Distance(tryPhys(op.Qubits[0]), tryPhys(op.Qubits[1]))
		// Earlier gates weigh more.
		cost += d * (window - count)
		count++
		if count >= window {
			break
		}
	}
	return cost
}

func applySwap(out *circuit.Circuit, phys, logi []int, p1, p2 int) {
	out.Append(gate.New(gate.SWAP), p1, p2)
	l1, l2 := logi[p1], logi[p2]
	phys[l1], phys[l2] = p2, p1
	logi[p1], logi[p2] = l2, l1
}

// Validate checks that every multi-qubit gate of a routed circuit sits
// on a coupler.
func Validate(c *circuit.Circuit, topo *Topology) error {
	for i, op := range c.Ops {
		if len(op.Qubits) == 2 && !topo.Adjacent(op.Qubits[0], op.Qubits[1]) {
			return fmt.Errorf("route: op %d (%s) not on a coupler", i, op)
		}
		if len(op.Qubits) > 2 {
			return fmt.Errorf("route: op %d (%s) has arity > 2", i, op)
		}
	}
	return nil
}
