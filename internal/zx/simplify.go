package zx

import "math"

// ToGraphLike rewrites the diagram so that every spider is a Z-spider
// and every spider-spider edge is a Hadamard edge: X-spiders are
// color-changed, simple-edge-connected Z pairs are fused (Hopf-resolving
// parallel edges), and phase-0 degree-2 identity spiders are removed.
func (g *Graph) ToGraphLike() {
	g.colorChange()
	for {
		changed := g.fuseAll()
		if g.removeIdentities() {
			changed = true
		}
		if !changed {
			return
		}
	}
}

// colorChange converts every X-spider to a Z-spider by toggling the
// kind of each incident edge.
func (g *Graph) colorChange() {
	for v, k := range g.kind {
		if k != XSpider {
			continue
		}
		g.kind[v] = ZSpider
		for i, e := range g.nbrs[v] {
			nk := Hadamard
			if e.kind == Hadamard {
				nk = Simple
			}
			g.nbrs[v][i].kind = nk
			g.setHalf(e.to, v, nk)
		}
	}
}

// fuseAll merges every pair of Z-spiders joined by a simple edge until
// none remain. Returns whether anything changed.
//
// Fusions happen in a fixed order: always the smallest vertex that has
// a simple-edge Z neighbour, fused with its smallest such neighbour.
// Fusion only removes vertices, so a single walk over the ids finds
// them all: fuse(u, v) can give u new partners, but never a vertex
// below u (DESIGN.md §14).
func (g *Graph) fuseAll() bool {
	changed := false
	for u := range g.kind {
		for {
			v, ok := g.fusePartner(u)
			if !ok {
				break
			}
			g.fuse(u, v)
			changed = true
		}
	}
	return changed
}

// fusePartner returns u's smallest simple-edge Z-spider neighbour, if
// u is a live Z-spider and has one.
func (g *Graph) fusePartner(u int) (int, bool) {
	if g.kind[u] != ZSpider {
		return 0, false
	}
	for _, e := range g.nbrs[u] {
		if e.kind == Simple && g.kind[e.to] == ZSpider {
			return e.to, true
		}
	}
	return 0, false
}

// fuse merges v into u (both Z-spiders joined by a simple edge),
// resolving parallel edges: simple‖simple → simple, Hadamard‖Hadamard →
// none (Hopf), simple‖Hadamard → simple with a π phase.
func (g *Graph) fuse(u, v int) {
	g.AddToPhase(u, g.phase[v])
	g.RemoveEdge(u, v)
	for _, e := range g.nbrs[v] {
		g.combineEdge(u, e.to, e.kind)
	}
	g.RemoveVertex(v)
}

// combineEdge adds an edge of kind k between u and w, resolving a
// parallel edge if one exists. Both endpoints must not both be
// boundaries for the parallel rules to apply; boundary vertices have
// degree one so the parallel case cannot involve them.
func (g *Graph) combineEdge(u, w int, k EKind) {
	old, exists := g.Edge(u, w)
	if !exists {
		g.SetEdge(u, w, k)
		return
	}
	switch {
	case old == Simple && k == Simple:
		// Parallel plain edges between Z-spiders: keep one (the pair
		// fuses later and the extra edge becomes a dropped self-loop).
	case old == Hadamard && k == Hadamard:
		// Hopf: parallel Hadamard edges cancel.
		g.RemoveEdge(u, w)
	default:
		// simple + Hadamard: fusing along the plain edge leaves a
		// Hadamard self-loop, i.e. a π phase; keep the plain edge.
		g.SetEdge(u, w, Simple)
		g.AddToPhase(u, math.Pi)
	}
}

// removeIdentities deletes phase-0 degree-2 Z-spiders, splicing their
// two edges together. Returns whether anything changed.
func (g *Graph) removeIdentities() bool {
	changed := false
	for v, k := range g.kind {
		if k != ZSpider || !phaseIsZero(g.phase[v]) || g.Degree(v) != 2 {
			continue
		}
		ea, eb := g.nbrs[v][0], g.nbrs[v][1]
		a, b := ea.to, eb.to
		combined := Simple
		if (ea.kind == Hadamard) != (eb.kind == Hadamard) {
			combined = Hadamard
		}
		// Splicing may create a parallel edge; combineEdge resolves it
		// when both ends are spiders, otherwise skip this identity (rare,
		// boundary case).
		if _, exists := g.Edge(a, b); exists && (g.kind[a] == Boundary || g.kind[b] == Boundary) {
			continue
		}
		g.RemoveVertex(v)
		g.combineEdge(a, b, combined)
		changed = true
	}
	return changed
}

// lcompAll applies local complementation to every interior proper-
// Clifford (±π/2) spider, removing it. Returns whether anything
// changed.
func (g *Graph) lcompAll() bool {
	changed := false
	for {
		v, found := g.findLcomp()
		if !found {
			return changed
		}
		g.lcomp(v)
		changed = true
	}
}

func (g *Graph) findLcomp() (int, bool) {
	for v, k := range g.kind {
		if k != ZSpider || !phaseIsProperClifford(g.phase[v]) || !g.isInterior(v) {
			continue
		}
		ok := true
		for _, e := range g.nbrs[v] {
			if e.kind != Hadamard || g.Degree(e.to) == 1 {
				// Keep phase-gadget structure intact: complementing the
				// neighborhood of a vertex with a degree-1 leaf would
				// tear the gadget apart.
				ok = false
				break
			}
		}
		if ok {
			return v, true
		}
	}
	return 0, false
}

// lcomp removes v (phase ±π/2, all-Hadamard interior spider) by local
// complementation: toggle Hadamard edges between all neighbor pairs and
// subtract v's phase from every neighbor.
func (g *Graph) lcomp(v int) {
	nb := g.Neighbors(v)
	p := g.phase[v]
	for i := 0; i < len(nb); i++ {
		for j := i + 1; j < len(nb); j++ {
			g.toggleHEdge(nb[i], nb[j])
		}
	}
	for _, w := range nb {
		g.AddToPhase(w, -p)
	}
	g.RemoveVertex(v)
}

// pivotAll applies the pivot rule to every interior Pauli pair joined
// by a Hadamard edge, removing both. Returns whether anything changed.
func (g *Graph) pivotAll() bool {
	changed := false
	for {
		u, v, found := g.findPivot()
		if !found {
			return changed
		}
		g.pivot(u, v)
		changed = true
	}
}

func (g *Graph) findPivot() (int, int, bool) {
	for u := range g.kind {
		if !g.pivotCandidate(u) {
			continue
		}
		for _, e := range g.nbrs[u] {
			if e.kind == Hadamard && e.to > u && g.pivotCandidate(e.to) {
				return u, e.to, true
			}
		}
	}
	return 0, 0, false
}

// interiorPauliAllH reports whether v is an interior Pauli Z-spider
// with only Hadamard edges (gadget axes included).
func (g *Graph) interiorPauliAllH(v int) bool {
	return g.kind[v] == ZSpider && phaseIsPauli(g.phase[v]) && g.isInterior(v) && g.allHadamard(v)
}

// allHadamard reports whether every edge at v is a Hadamard edge.
func (g *Graph) allHadamard(v int) bool {
	for _, e := range g.nbrs[v] {
		if e.kind != Hadamard {
			return false
		}
	}
	return true
}

func (g *Graph) pivotCandidate(v int) bool {
	if !g.interiorPauliAllH(v) {
		return false
	}
	for _, e := range g.nbrs[v] {
		// Vertices carrying a phase-gadget leaf (degree-1 neighbor) are
		// axes; pivoting them would tear the gadget apart and lets the
		// gadgetizing loop run forever.
		if g.Degree(e.to) == 1 {
			return false
		}
	}
	return true
}

// pivot removes the Hadamard-connected interior Pauli pair (u, v):
// with A = N(u)∖N(v)∖{v}, B = N(v)∖N(u)∖{u}, C = N(u)∩N(v), it toggles
// all edges across A×B, A×C and B×C and shifts phases: A += φ(v),
// B += φ(u), C += φ(u)+φ(v)+π.
func (g *Graph) pivot(u, v int) {
	pu, pv := g.phase[u], g.phase[v]
	// Merge the two sorted neighbour lists into sorted A, B and C.
	nu, nv := g.nbrs[u], g.nbrs[v]
	var a, b, c []int
	for i, j := 0, 0; i < len(nu) || j < len(nv); {
		switch {
		case j == len(nv) || i < len(nu) && nu[i].to < nv[j].to:
			if nu[i].to != v {
				a = append(a, nu[i].to)
			}
			i++
		case i == len(nu) || nv[j].to < nu[i].to:
			if nv[j].to != u {
				b = append(b, nv[j].to)
			}
			j++
		default:
			c = append(c, nu[i].to)
			i++
			j++
		}
	}
	for _, x := range a {
		for _, y := range b {
			g.toggleHEdge(x, y)
		}
	}
	for _, x := range a {
		for _, y := range c {
			g.toggleHEdge(x, y)
		}
	}
	for _, x := range b {
		for _, y := range c {
			g.toggleHEdge(x, y)
		}
	}
	for _, x := range a {
		g.AddToPhase(x, pv)
	}
	for _, y := range b {
		g.AddToPhase(y, pu)
	}
	for _, z := range c {
		g.AddToPhase(z, pu+pv+math.Pi)
	}
	g.RemoveVertex(u)
	g.RemoveVertex(v)
}

// toggleHEdge flips the presence of a Hadamard edge between two
// Z-spiders.
func (g *Graph) toggleHEdge(x, y int) {
	if x == y {
		return
	}
	if _, exists := g.Edge(x, y); exists {
		g.RemoveEdge(x, y)
	} else {
		g.SetEdge(x, y, Hadamard)
	}
}

// Simplify runs the interior Clifford simplification loop: graph-like
// normalization, then local complementation and pivoting to a fixed
// point. This mirrors PyZX's clifford_simp strategy and is the
// graph-based depth-optimization stage of the EPOC pipeline.
func (g *Graph) Simplify() {
	g.ToGraphLike()
	for {
		changed := false
		if g.lcompAll() {
			changed = true
		}
		if g.pivotAll() {
			changed = true
		}
		if changed {
			// Rewrites can create new fusable/identity patterns.
			g.ToGraphLike()
		} else {
			return
		}
	}
}
