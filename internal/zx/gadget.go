package zx

import "fmt"

// Phase-gadget machinery: the extra rewrites that lift Simplify
// (clifford_simp) to the strength of PyZX's full_reduce. A phase
// gadget is a phase-carrying leaf spider attached through a phase-0
// axis spider to the gadget's legs:
//
//	leaf(α) ─H─ axis(0) ─H─ {legs...}
//
// pivotGadget turns a non-Pauli interior spider into a gadget so a
// pivot with its Pauli neighbor becomes possible; fuseGadgets merges
// gadgets with identical leg sets (adding phases), which is where
// T-count/depth reductions on structured ansätze come from.

// pivotGadgetAll applies the gadgetizing pivot wherever an interior
// Pauli spider is Hadamard-adjacent to an interior non-Pauli spider.
// Returns whether anything changed.
func (g *Graph) pivotGadgetAll() bool {
	changed := false
	// Each gadgetizing pivot consumes one non-axis interior Pauli
	// spider, so the initial vertex count bounds the loop; the snapshot
	// also guards against any residual growth pathology.
	limit := 10*g.NumVertices() + 10
	for iter := 0; iter < limit; iter++ {
		u, v, found := g.findPivotGadget()
		if !found {
			return changed
		}
		g.pivotGadget(u, v)
		changed = true
	}
	return changed
}

// findPivotGadget looks for u (interior Pauli, all-H) H-adjacent to v
// (interior non-Pauli, all-H). v must not itself be a gadget axis or
// leaf (gadgetizing those would loop forever).
func (g *Graph) findPivotGadget() (int, int, bool) {
	for u := range g.kind {
		if !g.pivotCandidate(u) {
			continue
		}
		for _, e := range g.nbrs[u] {
			v := e.to
			if e.kind != Hadamard {
				continue
			}
			if g.kind[v] != ZSpider || phaseIsPauli(g.phase[v]) || !g.isInterior(v) {
				continue
			}
			if g.Degree(v) == 1 || g.isGadgetAxis(v) {
				continue
			}
			if g.allHadamard(v) {
				return u, v, true
			}
		}
	}
	return 0, 0, false
}

// pivotGadget unfuses v's phase into a fresh gadget, leaving v Pauli,
// then pivots (u, v).
func (g *Graph) pivotGadget(u, v int) {
	leaf := g.AddVertex(ZSpider, g.phase[v])
	axis := g.AddVertex(ZSpider, 0)
	g.SetEdge(leaf, axis, Hadamard)
	g.SetEdge(axis, v, Hadamard)
	g.SetPhase(v, 0)
	g.pivot(u, v)
}

// isGadgetAxis reports whether v is a phase-0 spider with exactly one
// degree-1 neighbor (its phase leaf).
func (g *Graph) isGadgetAxis(v int) bool { return g.gadgetLeaf(v) >= 0 }

// gadgetLeaf returns the degree-1 phase leaf of v if v is a gadget
// axis, and -1 otherwise.
func (g *Graph) gadgetLeaf(v int) int {
	if g.kind[v] != ZSpider || !phaseIsZero(g.phase[v]) {
		return -1
	}
	leaf := -1
	for _, e := range g.nbrs[v] {
		if g.Degree(e.to) == 1 && g.kind[e.to] == ZSpider {
			if leaf >= 0 {
				return -1
			}
			leaf = e.to
		}
	}
	return leaf
}

// fuseGadgets merges phase gadgets whose leg sets are identical,
// adding their leaf phases. Returns whether anything changed.
func (g *Graph) fuseGadgets() bool {
	// Collect gadgets: axis -> sorted leg list (neighbour lists are
	// sorted, so the legs come out in order).
	type gadget struct {
		axis, leaf int
		legs       string
	}
	var gadgets []gadget
	for v := range g.kind {
		leaf := g.gadgetLeaf(v)
		if leaf < 0 {
			continue
		}
		legs := make([]int, 0, g.Degree(v)-1)
		allH := true
		for _, e := range g.nbrs[v] {
			if e.to == leaf {
				continue
			}
			if e.kind != Hadamard || g.kind[e.to] == Boundary {
				allH = false
				break
			}
			legs = append(legs, e.to)
		}
		if !allH || len(legs) == 0 {
			continue
		}
		gadgets = append(gadgets, gadget{axis: v, leaf: leaf, legs: fmt.Sprint(legs)})
	}
	byLegs := map[string]gadget{}
	changed := false
	for _, gd := range gadgets {
		prev, dup := byLegs[gd.legs]
		if !dup {
			byLegs[gd.legs] = gd
			continue
		}
		// Merge gd into prev: phases add on the leaves.
		g.AddToPhase(prev.leaf, g.phase[gd.leaf])
		g.RemoveVertex(gd.leaf)
		g.RemoveVertex(gd.axis)
		changed = true
	}
	return changed
}

// FullSimplify runs Simplify plus the phase-gadget rewrites to a fixed
// point — the counterpart of PyZX's full_reduce. Extraction of the
// result may need the gadget-aware stall recovery in ToCircuit.
func (g *Graph) FullSimplify() {
	g.Simplify()
	_ = g.ReduceGadgets() // whether the gadget rules changed the diagram matters only to stage 1's candidates
}

// ReduceGadgets is FullSimplify after its Simplify: on a diagram
// Simplify has reduced, it runs rounds of the phase-gadget rewrites,
// each followed by Simplify, until a round changes nothing. A vertex
// budget backstops termination: if rewriting ever grows the diagram
// past 4× its size at the start the loop stops with whatever has been
// achieved (the diagram stays semantically valid throughout). It
// reports whether the first round changed the diagram; when it did
// not, the diagram is the one Simplify left.
func (g *Graph) ReduceGadgets() bool {
	budget := 4*g.NumVertices() + 64
	for rounds := 0; rounds < 100; rounds++ {
		changed := g.pivotGadgetAll()
		if g.fuseGadgets() {
			changed = true
		}
		if !changed || g.NumVertices() > budget {
			return rounds > 0 || changed
		}
		g.Simplify()
	}
	return true
}
