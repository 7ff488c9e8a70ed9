// Package zx implements ZX-calculus circuit optimization: conversion
// of circuits to ZX-diagrams, graph-like simplification (spider fusion,
// identity removal, local complementation, pivoting — the
// clifford_simp strategy of PyZX), and extraction of an equivalent,
// usually shallower circuit via GF(2) Gaussian elimination.
//
// Phases are in radians, stored modulo 2π.
package zx

import (
	"fmt"
	"math"
)

// VKind classifies a vertex.
type VKind uint8

// Vertex kinds.
const (
	Boundary VKind = iota
	ZSpider
	XSpider
)

// EKind classifies an edge.
type EKind uint8

// Edge kinds: a Simple edge is a plain wire, a Hadamard edge carries an
// implicit Hadamard box.
const (
	Simple EKind = iota
	Hadamard
)

// edge is one entry of a vertex's neighbour list: the neighbour's id
// and the kind of the edge to it.
type edge struct {
	to   int
	kind EKind
}

// Graph is an undirected ZX-diagram (open graph with ordered boundary
// lists). Parallel edges are resolved eagerly by rewrite rules, so the
// representation stores at most one edge per vertex pair.
//
// Vertex state lives in slices indexed by id, and each vertex keeps its
// neighbours sorted by id, so every walk comes out in id order without
// a sort. A removed vertex is tombstoned: its id is never reused, it
// reads as a phase-0 Boundary with no neighbours, and walks skip it.
type Graph struct {
	kind    []VKind
	phase   []float64
	alive   []bool
	nbrs    [][]edge
	live    int
	Inputs  []int
	Outputs []int
}

// NewGraph returns an empty diagram.
func NewGraph() *Graph { return &Graph{} }

// AddVertex inserts a vertex and returns its id.
func (g *Graph) AddVertex(k VKind, phase float64) int {
	g.kind = append(g.kind, k)
	g.phase = append(g.phase, normPhase(phase))
	g.alive = append(g.alive, true)
	g.nbrs = append(g.nbrs, nil)
	g.live++
	return len(g.kind) - 1
}

// RemoveVertex deletes a vertex and all incident edges.
func (g *Graph) RemoveVertex(v int) {
	if !g.alive[v] {
		return
	}
	for _, e := range g.nbrs[v] {
		g.removeHalf(e.to, v)
	}
	g.kind[v], g.phase[v], g.alive[v], g.nbrs[v] = Boundary, 0, false, nil
	g.live--
}

// SetPhase overwrites the vertex phase.
func (g *Graph) SetPhase(v int, p float64) { g.phase[v] = normPhase(p) }

// AddToPhase adds p to the vertex phase.
func (g *Graph) AddToPhase(v int, p float64) { g.phase[v] = normPhase(g.phase[v] + p) }

// find returns w's position in the sorted list l, or the position it
// would be inserted at, and whether it is there. Lists are short, and
// at 48 qubits a linear scan measured faster than a binary search.
func find(l []edge, w int) (int, bool) {
	i := 0
	for i < len(l) && l[i].to < w {
		i++
	}
	return i, i < len(l) && l[i].to == w
}

// setHalf records the edge a→b of kind k in a's list.
func (g *Graph) setHalf(a, b int, k EKind) {
	l := g.nbrs[a]
	i, ok := find(l, b)
	if ok {
		l[i].kind = k
		return
	}
	l = append(l, edge{})
	copy(l[i+1:], l[i:])
	l[i] = edge{b, k}
	g.nbrs[a] = l
}

// removeHalf drops b from a's list if present.
func (g *Graph) removeHalf(a, b int) {
	if i, ok := find(g.nbrs[a], b); ok {
		g.nbrs[a] = append(g.nbrs[a][:i], g.nbrs[a][i+1:]...)
	}
}

// SetEdge inserts or overwrites the edge between a and b.
func (g *Graph) SetEdge(a, b int, k EKind) {
	if a == b {
		panic("zx: self-loop edges must be resolved by the caller")
	}
	g.setHalf(a, b, k)
	g.setHalf(b, a, k)
}

// RemoveEdge deletes the edge between a and b if present.
func (g *Graph) RemoveEdge(a, b int) {
	g.removeHalf(a, b)
	g.removeHalf(b, a)
}

// Edge returns the edge kind and whether the edge exists.
func (g *Graph) Edge(a, b int) (EKind, bool) {
	l := g.nbrs[a]
	if i, ok := find(l, b); ok {
		return l[i].kind, true
	}
	return 0, false
}

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int) int { return len(g.nbrs[v]) }

// Neighbors returns a fresh slice of v's neighbor ids in sorted order;
// callers may change the graph while they walk it.
func (g *Graph) Neighbors(v int) []int {
	out := make([]int, len(g.nbrs[v]))
	for i, e := range g.nbrs[v] {
		out[i] = e.to
	}
	return out
}

// Vertices returns all vertex ids in sorted order.
func (g *Graph) Vertices() []int {
	out := make([]int, 0, g.live)
	for v, ok := range g.alive {
		if ok {
			out = append(out, v)
		}
	}
	return out
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return g.live }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int {
	n := 0
	for _, l := range g.nbrs {
		n += len(l)
	}
	return n / 2
}

// NumSpiders returns the number of non-boundary vertices.
func (g *Graph) NumSpiders() int {
	n := 0
	for _, k := range g.kind {
		if k != Boundary {
			n++
		}
	}
	return n
}

// TCount returns the number of non-Clifford spider phases in the
// diagram — the resource metric T-count-reduction work (Kissinger &
// van de Wetering 2019) optimizes.
func (g *Graph) TCount() int {
	n := 0
	for v, k := range g.kind {
		if k == Boundary {
			continue
		}
		p := g.phase[v]
		if !phaseIsPauli(p) && !phaseIsProperClifford(p) {
			n++
		}
	}
	return n
}

// isInterior reports whether no neighbor of v is a boundary.
func (g *Graph) isInterior(v int) bool {
	for _, e := range g.nbrs[v] {
		if g.kind[e.to] == Boundary {
			return false
		}
	}
	return true
}

// String renders a compact description for debugging.
func (g *Graph) String() string {
	s := fmt.Sprintf("zx.Graph{%d vertices, %d edges, %d in, %d out}\n",
		g.NumVertices(), g.NumEdges(), len(g.Inputs), len(g.Outputs))
	for _, v := range g.Vertices() {
		kindName := map[VKind]string{Boundary: "B", ZSpider: "Z", XSpider: "X"}[g.kind[v]]
		s += fmt.Sprintf("  %d %s(%.3f):", v, kindName, g.phase[v])
		for _, e := range g.nbrs[v] {
			mark := "-"
			if e.kind == Hadamard {
				mark = "~"
			}
			s += fmt.Sprintf(" %s%d", mark, e.to)
		}
		s += "\n"
	}
	return s
}

// normPhase maps a phase into [0, 2π).
func normPhase(p float64) float64 {
	m := math.Mod(p, 2*math.Pi)
	if m < 0 {
		m += 2 * math.Pi
	}
	if m < phaseTol || 2*math.Pi-m < phaseTol {
		return 0
	}
	return m
}

const phaseTol = 1e-10

// phaseIsZero reports p ≈ 0 (mod 2π).
func phaseIsZero(p float64) bool { return normPhase(p) == 0 }

// phaseIsPauli reports p ≈ 0 or π.
func phaseIsPauli(p float64) bool {
	n := normPhase(p)
	return n == 0 || math.Abs(n-math.Pi) < phaseTol
}

// phaseIsProperClifford reports p ≈ ±π/2.
func phaseIsProperClifford(p float64) bool {
	n := normPhase(p)
	return math.Abs(n-math.Pi/2) < phaseTol || math.Abs(n-3*math.Pi/2) < phaseTol
}
