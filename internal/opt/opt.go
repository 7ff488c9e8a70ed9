// Package opt provides L-BFGS with two-loop recursion, the
// quasi-Newton optimizer circuit synthesis uses for VUG instantiation.
// (GRAPE carries its own fused Adam ascent loop in internal/qoc.)
package opt

import (
	"math"
)

// Objective is a scalar function of a parameter vector.
type Objective func(x []float64) float64

// Gradient fills grad with ∂f/∂x at x.
type Gradient func(x []float64, grad []float64)

// Result reports the outcome of an optimization run.
type Result struct {
	X          []float64
	F          float64
	Iterations int
	Converged  bool
}

// LBFGSConfig controls the L-BFGS optimizer.
type LBFGSConfig struct {
	Memory  int     // history length (default 8)
	MaxIter int     // iteration budget (default 200)
	GradTol float64 // stop when ‖grad‖∞ < GradTol (default 1e-8)
	Tol     float64 // stop when |Δf| < Tol (default 1e-12)
}

func (c *LBFGSConfig) defaults() {
	if c.Memory == 0 {
		c.Memory = 8
	}
	if c.MaxIter == 0 {
		c.MaxIter = 200
	}
	if c.GradTol == 0 {
		c.GradTol = 1e-8
	}
	if c.Tol == 0 {
		c.Tol = 1e-12
	}
}

// lbfgsHistory is a ring buffer of (s, y, ρ) curvature pairs. Rows are
// allocated once at capacity; push overwrites the oldest entry in place
// and reset just zeroes the logical length, so a running L-BFGS never
// allocates history after construction.
type lbfgsHistory struct {
	s, y  [][]float64
	rho   []float64
	head  int // index of the oldest entry
	count int
}

func newLBFGSHistory(mem, n int) *lbfgsHistory {
	h := &lbfgsHistory{
		s:   make([][]float64, mem),
		y:   make([][]float64, mem),
		rho: make([]float64, mem),
	}
	for i := 0; i < mem; i++ {
		h.s[i] = make([]float64, n)
		h.y[i] = make([]float64, n)
	}
	return h
}

// at maps logical index i (0 = oldest) to the ring slot.
func (h *lbfgsHistory) at(i int) int { return (h.head + i) % len(h.s) }

// push records a curvature pair, evicting the oldest when full.
func (h *lbfgsHistory) push(s, y []float64, rho float64) {
	var slot int
	if h.count < len(h.s) {
		slot = h.at(h.count)
		h.count++
	} else {
		slot = h.head
		h.head = (h.head + 1) % len(h.s)
	}
	copy(h.s[slot], s)
	copy(h.y[slot], y)
	h.rho[slot] = rho
}

func (h *lbfgsHistory) reset() { h.count, h.head = 0, 0 }

// LBFGS minimizes f with limited-memory BFGS and a backtracking Armijo
// line search. The iteration loop is allocation-free: the direction and
// line-search buffers are preallocated, the curvature history lives in
// a fixed ring buffer, and the line-search closures are hoisted out of
// the loop — VUG instantiation calls this once per candidate template,
// so per-iteration garbage multiplies across the whole synthesis sweep.
//
//epoc:hot
func LBFGS(f Objective, g Gradient, x0 []float64, cfg LBFGSConfig) Result {
	cfg.defaults()
	n := len(x0)
	x := make([]float64, n)
	copy(x, x0)
	grad := make([]float64, n)
	g(x, grad)

	hist := newLBFGSHistory(cfg.Memory, n)
	alpha := make([]float64, cfg.Memory)
	d := make([]float64, n)
	xNew := make([]float64, n)
	trial := make([]float64, n)
	gradNew := make([]float64, n)
	s := make([]float64, n)
	y := make([]float64, n)
	fx := f(x)

	// Line-search state shared with the hoisted closures; fx, g0 and d
	// mutate between calls, the closures read them by reference.
	var g0, fNew float64
	eval := func(step float64) float64 {
		for i := range x {
			trial[i] = x[i] + step*d[i]
		}
		return f(trial)
	}
	lineSearch := func() bool {
		step := 1.0
		for ls := 0; ls < 50; ls++ {
			ft := eval(step)
			if ft <= fx+1e-4*step*g0 {
				// Greedily expand while the objective keeps dropping; this
				// substitutes for a Wolfe curvature check and yields useful
				// (s, y) pairs in narrow valleys.
				for exp := 0; exp < 10; exp++ {
					ft2 := eval(2 * step)
					if ft2 >= ft || ft2 > fx+1e-4*2*step*g0 {
						break
					}
					step *= 2
					ft = ft2
				}
				// ft is f at x + step·d already; form that point
				// directly instead of sweeping the objective again.
				fNew = ft
				for i := range x {
					xNew[i] = x[i] + step*d[i]
				}
				return true
			}
			step *= 0.5
		}
		return false
	}

	for iter := 1; iter <= cfg.MaxIter; iter++ {
		if maxAbs(grad) < cfg.GradTol {
			//epoc:lint-ignore allochot exit-path result literal: allocates once per run, not per iteration
			return Result{X: x, F: fx, Iterations: iter, Converged: true}
		}
		// Two-loop recursion to get the search direction d = -H·grad.
		q := d
		copy(q, grad)
		k := hist.count
		for i := k - 1; i >= 0; i-- {
			j := hist.at(i)
			alpha[i] = hist.rho[j] * dot(hist.s[j], q)
			axpy(q, hist.y[j], -alpha[i])
		}
		// Initial Hessian scaling; without history, bound the first step
		// so a steep objective does not trigger a wall of backtracking.
		if k > 0 {
			j := hist.at(k - 1)
			gammaK := dot(hist.s[j], hist.y[j]) / dot(hist.y[j], hist.y[j])
			scale(q, gammaK)
		} else if g := maxAbs(q); g > 1 {
			scale(q, 1/g)
		}
		for i := 0; i < k; i++ {
			j := hist.at(i)
			beta := hist.rho[j] * dot(hist.y[j], q)
			axpy(q, hist.s[j], alpha[i]-beta)
		}
		scale(d, -1)

		// Armijo backtracking.
		g0 = dot(grad, d)
		if g0 >= 0 {
			// Not a descent direction (stale curvature); fall back to -grad.
			copy(d, grad)
			scale(d, -1)
			g0 = dot(grad, d)
			hist.reset()
		}
		if !lineSearch() {
			// Retry once along the raw negative gradient with fresh history.
			copy(d, grad)
			scale(d, -1)
			g0 = dot(grad, d)
			hist.reset()
			if !lineSearch() {
				//epoc:lint-ignore allochot exit-path result literal: allocates once per run, not per iteration
				return Result{X: x, F: fx, Iterations: iter, Converged: maxAbs(grad) < math.Sqrt(cfg.GradTol)}
			}
		}
		g(xNew, gradNew)

		for i := range x {
			s[i] = xNew[i] - x[i]
			y[i] = gradNew[i] - grad[i]
		}
		sy := dot(s, y)
		if sy > 1e-12 {
			hist.push(s, y, 1/sy)
		}
		if math.Abs(fx-fNew) < cfg.Tol*(1+math.Abs(fNew)) && maxAbs(gradNew) < math.Sqrt(cfg.GradTol) {
			copy(x, xNew)
			//epoc:lint-ignore allochot exit-path result literal: allocates once per run, not per iteration
			return Result{X: x, F: fNew, Iterations: iter, Converged: true}
		}
		copy(x, xNew)
		copy(grad, gradNew)
		fx = fNew
	}
	return Result{X: x, F: fx, Iterations: cfg.MaxIter, Converged: false}
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func axpy(y, x []float64, a float64) {
	for i := range y {
		y[i] += a * x[i]
	}
}

func scale(x []float64, a float64) {
	for i := range x {
		x[i] *= a
	}
}

func maxAbs(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}
