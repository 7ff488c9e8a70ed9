package qoc

import (
	"math"

	"epoc/internal/linalg"
)

// Similarity returns a distance in [0, √2] between two equal-size
// unitaries, invariant under global phase — the metric AccQOC's
// similarity graph uses to order pulse construction so each new
// optimization can warm-start from its nearest solved neighbour.
func Similarity(a, b *linalg.Matrix) float64 {
	return linalg.PhaseDistance(a, b)
}

// MSTOrder returns an ordering of the unitaries along a minimum
// spanning tree of their similarity graph (Prim's algorithm, starting
// from index 0), together with each element's tree parent (-1 for the
// root). Visiting unitaries in this order and warm-starting from the
// parent's pulse reproduces AccQOC's accelerated library construction.
func MSTOrder(us []*linalg.Matrix) (order []int, parent []int) {
	n := len(us)
	order = make([]int, 0, n)
	parent = make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	if n == 0 {
		return order, parent
	}
	inTree := make([]bool, n)
	dist := make([]float64, n)
	via := make([]int, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		via[i] = -1
	}
	dist[0] = 0
	for len(order) < n {
		best := -1
		for i := 0; i < n; i++ {
			if !inTree[i] && (best == -1 || dist[i] < dist[best]) {
				best = i
			}
		}
		inTree[best] = true
		parent[best] = via[best]
		order = append(order, best)
		for i := 0; i < n; i++ {
			if inTree[i] || us[i].Rows != us[best].Rows {
				continue
			}
			if d := Similarity(us[best], us[i]); d < dist[i] {
				dist[i] = d
				via[i] = best
			}
		}
	}
	return order, parent
}

// WarmStartGRAPE runs GRAPE initialized from a previous pulse's
// amplitudes (truncated or zero-padded to the requested slot count)
// instead of a random guess. With a close warm start the optimizer
// typically converges in a fraction of the iterations.
func WarmStartGRAPE(m *Model, target *linalg.Matrix, slots int, warm [][]float64, cfg GRAPEConfig) Result {
	cfg.defaults()
	if len(warm) == 0 {
		return GRAPE(m, target, slots, cfg)
	}
	nc := len(m.Controls)
	init := make([][]float64, slots)
	for s := 0; s < slots; s++ {
		init[s] = make([]float64, nc)
		if s < len(warm) {
			copy(init[s], warm[s])
		}
	}
	return grapeFrom(m, target, init, cfg)
}
