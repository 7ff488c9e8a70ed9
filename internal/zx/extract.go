package zx

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"epoc/internal/circuit"
	"epoc/internal/gate"
)

// ErrNoExtraction is returned when the extractor cannot make progress;
// for diagrams produced by FromCircuit + Simplify this indicates a
// diagram without the expected generalized flow.
var ErrNoExtraction = errors.New("zx: diagram admits no circuit extraction")

// errNoPivot wraps ErrNoExtraction, as the progress rule's stop does.
var errNoPivot = fmt.Errorf("%w: stalled frontier has no pivot to recover it", ErrNoExtraction)

// ToCircuit extracts a circuit from a graph-like diagram (call
// Simplify or ToGraphLike first). The extraction walks from the
// outputs toward the inputs, peeling off phase gates, CZs from frontier
// edges, CNOTs from GF(2) row eliminations and Hadamards on frontier
// advancement, mirroring the PyZX extraction algorithm. It gives up
// after 8 stall recoveries in a row without progress (DESIGN.md §14).
func (g *Graph) ToCircuit() (*circuit.Circuit, error) { return g.extract(8) }

// extract is ToCircuit with stallLimit in place of 8.
func (g *Graph) extract(stallLimit int) (*circuit.Circuit, error) {
	n := len(g.Outputs)
	work := g.clone()
	work.normalizeBoundaries()

	var rev []circuit.Op // collected back-to-front
	emit := func(gt gate.Gate, qs ...int) {
		rev = append(rev, circuit.NewOp(gt, qs...))
	}

	// Initialize the frontier: after normalizeBoundaries each output has
	// a unique spider neighbor via a simple edge.
	frontier := make([]int, n) // qubit -> vertex
	var qubitOf idTable        // vertex -> qubit
	for q, o := range work.Outputs {
		if d := work.Degree(o); d != 1 {
			return nil, fmt.Errorf("zx: output %d has degree %d after normalization", q, d)
		}
		v := work.nbrs[o][0].to
		if work.kind[v] == Boundary {
			return nil, fmt.Errorf("zx: output %d connects directly to a boundary after normalization", q)
		}
		frontier[q] = v
		qubitOf.set(v, q)
	}

	var inputQubit idTable
	for q, in := range work.Inputs {
		inputQubit.set(in, q)
	}
	var colIndex idTable // vertex -> biadjacency column, reset each round
	var cols []int

	// The loop ends: each iteration leaves it, advances the frontier
	// (removing a spider) or recovers a stall. A recovery is progress if
	// it leaves fewer live spiders than the S₀ at the start and after
	// each earlier one; at most S₀ are and at most stallLimit in a row
	// are not, so there are at most stallLimit·(S₀+1) recoveries, each
	// adding at most 2n spiders. The boundaries are fixed here, so the
	// O(1) live-vertex count stands in for the spider count.
	fewest, recoveries, stalled := work.NumVertices(), 0, 0
	for {
		// 1. Peel phases off frontier vertices.
		for q, v := range frontier {
			if p := work.phase[v]; !phaseIsZero(p) {
				emit(gate.New(gate.RZ, p), q)
				work.SetPhase(v, 0)
			}
		}
		// 2. Peel CZs off frontier-frontier Hadamard edges.
		for q1 := 0; q1 < n; q1++ {
			for q2 := q1 + 1; q2 < n; q2++ {
				if k, ok := work.Edge(frontier[q1], frontier[q2]); ok {
					if k != Hadamard {
						return nil, fmt.Errorf("zx: simple edge between frontier vertices")
					}
					emit(gate.New(gate.CZ), q1, q2)
					work.RemoveEdge(frontier[q1], frontier[q2])
				}
			}
		}
		// 3. Build the biadjacency over ALL non-frontier neighbors —
		// interior spiders first (advancement targets), then input
		// boundaries. Inputs must be columns too: a row operation XORs a
		// frontier vertex's entire back-neighborhood, including its
		// Hadamard wires into the inputs.
		cols = cols[:0]
		spiderCols := 0
		for pass := 0; pass < 2; pass++ {
			for _, v := range frontier {
				for _, e := range work.nbrs[v] {
					w := e.to
					if qubitOf.get(w) >= 0 {
						continue
					}
					isSpider := work.kind[w] == ZSpider
					if pass == 0 && !isSpider {
						continue
					}
					if pass == 1 {
						if isSpider {
							continue
						}
						if inputQubit.get(w) < 0 {
							continue // the vertex's own output boundary
						}
					}
					if e.kind != Hadamard {
						return nil, fmt.Errorf("zx: non-Hadamard edge behind the frontier")
					}
					if colIndex.get(w) < 0 {
						colIndex.set(w, len(cols))
						cols = append(cols, w)
						if isSpider {
							spiderCols++
						}
					}
				}
			}
		}
		m := newBitMatrix(n, len(cols))
		for q, v := range frontier {
			for _, e := range work.nbrs[v] {
				if ci := colIndex.get(e.to); ci >= 0 {
					m.set(q, ci)
				}
			}
		}
		for _, w := range cols {
			colIndex.set(w, -1)
		}
		// 4. Gauss-Jordan over GF(2); every row operation row[i] ^= row[j]
		// updates the diagram's frontier adjacency and emits a CNOT with
		// control i, target j (validated by round-trip tests).
		// Row q of m is frontier[q]'s adjacency to cols, so row j gives
		// the back-neighbours of frontier[j] to toggle.
		rowOp := func(i, j int) {
			m.xorRow(i, j)
			for ci, w := range cols {
				if m.get(j, ci) {
					work.toggleHEdge(frontier[i], w)
				}
			}
			emit(gate.New(gate.CX), i, j)
		}
		m.gaussJordan(rowOp)

		if spiderCols == 0 {
			break // only inputs remain; elimination above made it a permutation
		}

		// 5. Advance the frontier along rows whose single 1 sits on a
		// spider column.
		advanced := false
		for q := 0; q < n; q++ {
			ci, single := m.singleOne(q)
			if !single || ci >= spiderCols {
				continue
			}
			w := cols[ci]
			if qubitOf.get(w) >= 0 {
				continue // already promoted this round by another row
			}
			v := frontier[q]
			// v now has exactly: one simple edge to its output, one H edge
			// to w (phases and frontier CZs were peeled above).
			emit(gate.New(gate.H), q)
			o := work.Outputs[q]
			work.RemoveVertex(v)
			qubitOf.set(v, -1)
			work.SetEdge(w, o, Simple)
			frontier[q] = w
			qubitOf.set(w, q)
			advanced = true
		}
		if !advanced {
			// Phase gadgets block frontier advancement; pivot one away.
			if !work.recoverStall(frontier, &qubitOf, inputQubit) {
				return nil, errNoPivot
			}
			recoveries++
			if s := work.NumVertices(); s < fewest {
				fewest, stalled = s, 0
			} else if stalled++; stalled == stallLimit {
				return nil, fmt.Errorf("%w: stall recovery stopped shrinking the diagram after %d recoveries", ErrNoExtraction, recoveries)
			}
		}
	}

	// Final stage: every frontier vertex sees only input boundaries and
	// the Gauss-Jordan above reduced the frontier-input biadjacency to a
	// permutation. Peel the Hadamard input wires, then realize the
	// permutation with SWAPs.
	perm := make([]int, n) // output qubit -> input qubit
	for q, v := range frontier {
		inQ := -1
		for _, e := range work.nbrs[v] {
			if work.kind[e.to] != Boundary {
				return nil, fmt.Errorf("zx: leftover spider neighbor in final stage")
			}
			if iq := inputQubit.get(e.to); iq >= 0 {
				if inQ != -1 {
					return nil, fmt.Errorf("zx: frontier vertex adjacent to two inputs")
				}
				inQ = iq
				if e.kind != Hadamard {
					return nil, fmt.Errorf("zx: input edge not Hadamard after normalization")
				}
				emit(gate.New(gate.H), q)
			}
		}
		if inQ == -1 {
			return nil, fmt.Errorf("zx: frontier vertex disconnected from inputs")
		}
		perm[q] = inQ
	}
	// Emit SWAPs realizing the permutation: wire q must carry input
	// perm[q]. SWAPs are appended to the reversed list, so they land at
	// the front of the final circuit.
	p := append([]int(nil), perm...)
	for q := 0; q < n; q++ {
		for p[q] != q {
			j := p[q]
			emit(gate.New(gate.SWAP), q, j)
			p[q], p[j] = p[j], p[q]
		}
	}

	slices.Reverse(rev)
	return &circuit.Circuit{NumQubits: n, Ops: rev}, nil
}

// recoverStall unblocks a stalled extraction (typically caused by
// phase gadgets): it pivots a zero-phase frontier vertex with an
// interior Pauli neighbor, after detaching the frontier vertex from
// its boundaries with identity-preserving dummy chains so the standard
// interior pivot applies. Returns false when no such pivot exists.
func (g *Graph) recoverStall(frontier []int, qubitOf *idTable, inputQubit idTable) bool {
	for q, v := range frontier {
		if !phaseIsZero(g.phase[v]) {
			continue // phases are peeled at the top of the loop; skip
		}
		for _, w := range g.Neighbors(v) {
			if qubitOf.get(w) >= 0 {
				continue
			}
			// Unlike the simplifier's pivotCandidate, gadget axes ARE
			// eligible here: destroying the gadget (its leaf becomes an
			// ordinary spider) is exactly how the stall clears.
			if !g.interiorPauliAllH(w) {
				continue
			}
			// Detach v from its output: v -S- out ⇒ v -H- d1 -H- d2 -S- out.
			out := g.Outputs[q]
			g.RemoveEdge(v, out)
			d1 := g.AddVertex(ZSpider, 0)
			d2 := g.AddVertex(ZSpider, 0)
			g.SetEdge(v, d1, Hadamard)
			g.SetEdge(d1, d2, Hadamard)
			g.SetEdge(d2, out, Simple)
			// Detach v from inputs: i -H- v ⇒ i -H- e1 -H- e2 -H- v.
			for _, nb := range g.Neighbors(v) {
				if inputQubit.get(nb) < 0 {
					continue
				}
				g.RemoveEdge(v, nb)
				e1 := g.AddVertex(ZSpider, 0)
				e2 := g.AddVertex(ZSpider, 0)
				g.SetEdge(nb, e1, Hadamard)
				g.SetEdge(e1, e2, Hadamard)
				g.SetEdge(e2, v, Hadamard)
			}
			g.pivot(v, w)
			qubitOf.set(v, -1)
			frontier[q] = d2
			qubitOf.set(d2, q)
			return true
		}
	}
	return false
}

// idTable maps vertex ids to non-negative values, such as a vertex's
// qubit. Ids never set, including ones added after the table, read -1.
type idTable []int

func (t idTable) get(v int) int {
	if v < len(t) {
		return t[v]
	}
	return -1
}

func (t *idTable) set(v, x int) {
	for len(*t) <= v {
		*t = append(*t, -1)
	}
	(*t)[v] = x
}

// clone deep-copies the graph. All neighbour lists share one backing
// array, each capped at its own length so that growing one list
// reallocates it instead of overwriting the next.
func (g *Graph) clone() *Graph {
	out := &Graph{
		kind:    append([]VKind(nil), g.kind...),
		phase:   append([]float64(nil), g.phase...),
		alive:   append([]bool(nil), g.alive...),
		nbrs:    make([][]edge, len(g.nbrs)),
		live:    g.live,
		Inputs:  append([]int(nil), g.Inputs...),
		Outputs: append([]int(nil), g.Outputs...),
	}
	buf := make([]edge, 2*g.NumEdges())
	for v, l := range g.nbrs {
		n := copy(buf, l)
		out.nbrs[v], buf = buf[:n:n], buf[n:]
	}
	return out
}

// normalizeBoundaries rewrites boundary edges so that every input
// connects to a spider via a Hadamard edge and every output connects to
// a unique fresh spider via a simple edge. All inserted spiders are
// phase-0 Z-spiders, so the diagram's linear map is unchanged.
func (g *Graph) normalizeBoundaries() {
	for _, in := range g.Inputs {
		if d := g.Degree(in); d != 1 {
			panic(fmt.Sprintf("zx: input %d has degree %d", in, d))
		}
		v, k := g.nbrs[in][0].to, g.nbrs[in][0].kind
		if k == Simple {
			// in -S- v  ⇒  in -H- d -H- v (H·H = wire).
			d := g.AddVertex(ZSpider, 0)
			g.RemoveEdge(in, v)
			g.SetEdge(in, d, Hadamard)
			g.combineOrSet(d, v, Hadamard)
		}
	}
	for _, o := range g.Outputs {
		if d := g.Degree(o); d != 1 {
			panic(fmt.Sprintf("zx: output %d has degree %d", o, d))
		}
		v, k := g.nbrs[o][0].to, g.nbrs[o][0].kind
		g.RemoveEdge(o, v)
		if k == Hadamard {
			// v -H- d -S- out.
			d := g.AddVertex(ZSpider, 0)
			g.combineOrSet(v, d, Hadamard)
			g.SetEdge(d, o, Simple)
		} else {
			// v -H- d1 -H- d2 -S- out.
			d1 := g.AddVertex(ZSpider, 0)
			d2 := g.AddVertex(ZSpider, 0)
			g.combineOrSet(v, d1, Hadamard)
			g.SetEdge(d1, d2, Hadamard)
			g.SetEdge(d2, o, Simple)
		}
	}
}

// combineOrSet adds a Hadamard edge, resolving a parallel edge if the
// endpoints are spiders. Fresh vertices never collide, but v may
// already share an edge with another fresh dummy when an input and an
// output normalize against the same spider.
func (g *Graph) combineOrSet(a, b int, k EKind) {
	if g.kind[a] != Boundary && g.kind[b] != Boundary {
		g.combineEdge(a, b, k)
		return
	}
	g.SetEdge(a, b, k)
}

// --- GF(2) bit matrix ---

// bitMatrix is a GF(2) matrix with each row packed into 64-bit words.
type bitMatrix struct {
	rows, cols, words int
	bits              []uint64 // row i is bits[i*words : (i+1)*words]
}

func newBitMatrix(rows, cols int) *bitMatrix {
	words := (cols + 63) / 64
	return &bitMatrix{rows: rows, cols: cols, words: words, bits: make([]uint64, rows*words)}
}

func (m *bitMatrix) row(i int) []uint64 { return m.bits[i*m.words : (i+1)*m.words] }

func (m *bitMatrix) get(i, j int) bool { return m.bits[i*m.words+j/64]>>(j%64)&1 != 0 }

func (m *bitMatrix) set(i, j int) { m.bits[i*m.words+j/64] |= 1 << (j % 64) }

func (m *bitMatrix) xorRow(i, j int) {
	ri, rj := m.row(i), m.row(j)
	for k := range ri {
		ri[k] ^= rj[k]
	}
}

// gaussJordan reduces the matrix to reduced row-echelon form over
// GF(2) up to a row permutation, without row swaps (each swap would
// cost CNOTs in the extracted circuit). Every elementary operation
// row[i] ^= row[j] is reported through rowOp(i, j), which must itself
// perform the xorRow (so the caller can keep external state in sync).
func (m *bitMatrix) gaussJordan(rowOp func(i, j int)) {
	used := make([]bool, m.rows)
	for c := 0; c < m.cols; c++ {
		// Prefer the unused pivot row with the fewest set bits: its row
		// additions disturb the other rows least, which keeps the CNOT
		// count of the extraction down.
		pivot := -1
		best := m.cols + 1
		for i := 0; i < m.rows; i++ {
			if used[i] || !m.get(i, c) {
				continue
			}
			if w := m.rowWeight(i); w < best {
				best = w
				pivot = i
			}
		}
		if pivot == -1 {
			continue
		}
		used[pivot] = true
		for i := 0; i < m.rows; i++ {
			if i != pivot && m.get(i, c) {
				rowOp(i, pivot)
			}
		}
	}
}

func (m *bitMatrix) rowWeight(i int) int {
	w := 0
	for _, x := range m.row(i) {
		w += bits.OnesCount64(x)
	}
	return w
}

// singleOne returns (col, true) if row i has exactly one set bit.
func (m *bitMatrix) singleOne(i int) (int, bool) {
	col := -1
	for k, x := range m.row(i) {
		if x == 0 {
			continue
		}
		if col != -1 || x&(x-1) != 0 {
			return -1, false
		}
		col = 64*k + bits.TrailingZeros64(x)
	}
	return col, col != -1
}
