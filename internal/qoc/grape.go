package qoc

import (
	"math"
	"math/cmplx"
	"math/rand"

	"epoc/internal/faultclock"
	"epoc/internal/linalg"
	"epoc/internal/trace"
)

// GRAPEConfig tunes the optimizer.
type GRAPEConfig struct {
	MaxIter int     // iteration budget (default 300)
	Target  float64 // stop once fidelity reaches this (default 0.999)
	Seed    int64   // initial-guess RNG seed (default 1)

	// Gate, when non-nil, is checked once per iteration
	// (faultclock.SiteGRAPEIter): on cancellation the run stops and
	// Result.Err carries the context error; on deadline expiry it
	// stops with Result.Err = faultclock.ErrBudget. Either way the
	// returned Result is the best found so far.
	Gate *faultclock.Gate

	// BudgetIters, when > 0, is an externally imposed iteration budget
	// below MaxIter: the run stops after that many iterations with
	// Result.Err = faultclock.ErrBudget unless the target was reached
	// first. Unlike MaxIter (a tuning default), hitting BudgetIters
	// marks the result degraded. Being a plain per-run count, it is
	// deterministic at any worker count.
	BudgetIters int

	// Region is the instrumentation handle of the pulse being
	// optimized (the zero value records nothing). Its recorder gets
	// per-run convergence metrics: the iteration count and final
	// fidelity distributions, the early-stop reason counters
	// (qoc/grape/stop/*, one per run) and a "qoc/grape" event. The
	// duration search opens one "qoc/duration_probe" child region per
	// probe (see Probes).
	Region trace.Region
}

func (c *GRAPEConfig) defaults() {
	if c.MaxIter == 0 {
		c.MaxIter = 300
	}
	if c.Target == 0 {
		c.Target = 0.999
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Result is an optimized pulse schedule. A Result is always the best
// the optimizer found before it stopped — Err classifies why it
// stopped, so early exits still carry usable partial work.
type Result struct {
	Amps       [][]float64 // [slot][control], rad/ns
	Fidelity   float64     // |tr(U†·target)|/dim achieved
	Iterations int
	Slots      int
	Duration   float64 // ns

	// Err is nil when the run completed (target reached or MaxIter),
	// faultclock.ErrBudget when a time/iteration budget stopped it
	// early (the Result is the best-so-far and the caller should mark
	// the pipeline degraded), or a context error when it was canceled
	// (the caller should discard the Result and propagate).
	Err error
}

// Fidelity returns the phase-invariant gate fidelity |tr(A†B)|/dim.
func Fidelity(a, b *linalg.Matrix) float64 {
	return cmplx.Abs(linalg.HSInner(a, b)) / float64(a.Rows)
}

// GRAPE optimizes piecewise-constant control amplitudes over the given
// number of time slots to implement the target unitary up to global
// phase. Gradients are the standard first-order GRAPE gradients; the
// ascent uses Adam with projection onto the amplitude bounds.
func GRAPE(m *Model, target *linalg.Matrix, slots int, cfg GRAPEConfig) Result {
	cfg.defaults()
	nc := len(m.Controls)
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Initial guess: small random amplitudes.
	amps := make([][]float64, slots)
	for k := range amps {
		amps[k] = make([]float64, nc)
		for j := range amps[k] {
			amps[k][j] = (rng.Float64()*2 - 1) * m.MaxAmp[j] * 0.3
		}
	}
	return grapeFrom(m, target, amps, cfg)
}

// adamStep is GRAPE's Adam step size as a fraction of each control's
// amplitude bound: an iteration moves an amplitude by at most about
// 0.02·MaxAmp.
const adamStep = 0.02

// grapeFrom runs the GRAPE ascent from an explicit initial amplitude
// schedule (mutated in place as the working buffer). The ascent loop
// is the pipeline's hottest path: all per-iteration memory comes from
// the ascent state allocated up front (newAscent), never from this
// loop body, and the propagator cache recomputes only the slices whose
// controls actually changed since the previous iteration (saturated or
// warm-started slices are reused).
//
//epoc:hot
func grapeFrom(m *Model, target *linalg.Matrix, amps [][]float64, cfg GRAPEConfig) Result {
	cfg.defaults()
	if target.Rows != m.Dim() {
		panic("qoc: target dimension does not match model")
	}
	slots := len(amps)
	a := newAscent(m, target, amps)
	bestAmps := makeGrid(slots, len(m.Controls))
	haveBest := false

	best := Result{Fidelity: -1}
	fid := 0.0
	iter := 0
	var stop error
	for ; iter < cfg.MaxIter; iter++ {
		z := a.evaluate()
		fid = cmplx.Abs(z) / float64(m.Dim())
		if fid > best.Fidelity {
			best.Fidelity = fid
			copyAmps(bestAmps, amps)
			haveBest = true
			best.Iterations = iter
		}
		if fid >= cfg.Target {
			break
		}
		// Budget/cancellation checks sit after the forward propagation
		// so even a first-iteration stop returns a Result whose
		// fidelity was actually evaluated, never uninitialized amps.
		if err := cfg.Gate.Check(faultclock.SiteGRAPEIter); err != nil {
			stop = err
			break
		}
		if cfg.BudgetIters > 0 && iter+1 >= cfg.BudgetIters {
			stop = faultclock.ErrBudget
			break
		}
		if haveBest && iter+1 == cfg.MaxIter {
			// The last iteration: the result is bestAmps, and no
			// evaluation follows to read a stepped amps.
			continue
		}
		a.step(iter, z)
	}
	best.Slots = slots
	best.Duration = float64(slots) * m.Dt
	if haveBest {
		best.Amps = bestAmps
	} else {
		best.Amps = cloneAmps(amps)
	}
	best.Iterations = iter
	best.Err = stop
	if r := cfg.Region.Recorder(); r != nil {
		reason := "max_iter"
		switch {
		case fid >= cfg.Target:
			reason = "target"
		case faultclock.IsBudget(stop):
			reason = "budget"
		case stop != nil:
			reason = "canceled"
		}
		r.Add("qoc/grape/stop/"+reason, 1)
		r.Observe("qoc/grape/iterations", float64(iter))
		r.Observe("qoc/grape/final_fidelity", best.Fidelity)
		r.Eventf("qoc/grape", "slots=%d iters=%d fid=%.6f stop=%s", slots, iter, best.Fidelity, reason)
	}
	return best
}

// ascent is the working state of one GRAPE run: the amplitude
// schedule it moves, Adam's moment grids, the propagator cache and the
// gradient's scratch, all allocated by newAscent. An iteration is
// evaluate then step, and neither allocates.
type ascent struct {
	m            *Model
	target       *linalg.Matrix
	amps         [][]float64 // [slot][control], moved in place
	mAdam, vAdam [][]float64
	props        *propCache
	left         *linalg.Matrix
	rho          []complex128   // the entries of ρ the controls touch
	dense        *linalg.Matrix // ρ in full, where no fixed-size order applies
}

func newAscent(m *Model, target *linalg.Matrix, amps [][]float64) *ascent {
	dim, slots, nc := m.Dim(), len(amps), len(m.Controls)
	a := &ascent{
		m:      m,
		target: target,
		amps:   amps,
		mAdam:  makeGrid(slots, nc),
		vAdam:  makeGrid(slots, nc),
		props:  newPropCache(m, slots),
		left:   linalg.NewMatrix(dim, dim),
		rho:    make([]complex128, len(m.touched)),
	}
	if dim != 2 && dim != 4 && dim != 8 {
		a.dense = linalg.NewMatrix(dim, dim)
	}
	return a
}

// evaluate propagates the current schedule through the cache and
// returns z = tr(target†·U). Unchanged slices keep their step
// unitaries, and the prefix products rebuild only from the first
// changed slice on.
//
//epoc:hot
func (a *ascent) evaluate() complex128 {
	return linalg.HSInner(a.target, a.props.update(a.amps))
}

// step moves the schedule by one projected Adam ascent step along the
// fidelity gradient, from z, the evaluation of iteration iter.
//
//epoc:hot
func (a *ascent) step(iter int, z complex128) {
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	m := a.m
	dim := m.Dim()
	// Gradients: dz/du_{k,j} = -i·Dt·tr(target†·suffix_{k+1}·H_j·step_k·prefix_k)
	//                       = -i·Dt·tr(M_k·H_j·Nk) with trace cycling.
	// dF/du = Re(conj(z)·dz/du)/(|z|·dim).
	a.props.suffixes()
	zConj := cmplx.Conj(z)
	zAbs := cmplx.Abs(z)
	if zAbs < 1e-14 {
		zAbs = 1e-14
	}
	// Adam's bias corrections depend only on the iteration.
	bc1 := 1 - math.Pow(beta1, float64(iter+1))
	bc2 := 1 - math.Pow(beta2, float64(iter+1))
	for k, amps := range a.amps {
		mAdam, vAdam := a.mAdam[k], a.vAdam[k]
		// left = target†·suffix_{k+1} (adjoint fused, never
		// materialized); right = step_k·prefix_k = prefix_{k+1}.
		linalg.AdjointMulInto(a.left, a.target, a.props.suffix[k+1])
		// tr(left·H_j·right) = tr(ρ·H_j) with ρ = right·left, of
		// which only the entries the controls touch are formed.
		rhoInto(a.rho, m.touched, a.props.prefix[k+1], a.left, a.dense)
		for j, terms := range m.terms {
			tr := traceProduct(a.rho, terms)
			dz := complex(0, -m.Dt) * tr
			grad := real(zConj*dz) / (zAbs * float64(dim))
			// Adam ascent step (maximize fidelity).
			mAdam[j] = beta1*mAdam[j] + (1-beta1)*grad
			vAdam[j] = beta2*vAdam[j] + (1-beta2)*grad*grad
			mh := mAdam[j] / bc1
			vh := vAdam[j] / bc2
			amps[j] += adamStep * m.MaxAmp[j] * mh / (math.Sqrt(vh) + eps)
			// Project onto the hardware amplitude bound.
			if amps[j] > m.MaxAmp[j] {
				amps[j] = m.MaxAmp[j]
			} else if amps[j] < -m.MaxAmp[j] {
				amps[j] = -m.MaxAmp[j]
			}
		}
	}
}

// makeGrid allocates a zeroed slots×nc working grid (one row per time
// slot, one column per control).
func makeGrid(slots, nc int) [][]float64 {
	g := make([][]float64, slots)
	for k := range g {
		g[k] = make([]float64, nc)
	}
	return g
}

// rhoInto sets rho[t] to the entry touched[t] of a·b, bit for bit as
// linalg.MulInto would compute it. At n = 2, 4 and 8 that is one
// ascending sum over the shared index, seeded with its first product,
// the order of the fixed-size kernel products. Other n form the whole
// product in dense and gather from it.
//
//epoc:hot
func rhoInto(rho []complex128, touched []rhoEntry, a, b, dense *linalg.Matrix) {
	if dense != nil {
		linalg.MulInto(dense, a, b)
		for t, e := range touched {
			rho[t] = dense.Data[int(e.row)+int(e.col)]
		}
		return
	}
	n := a.Rows
	for t, e := range touched {
		ar := a.Data[e.row : int(e.row)+n]
		bc := b.Data[e.col:]
		s := ar[0] * bc[0]
		for m := 1; m < n; m++ {
			s += ar[m] * bc[m*n]
		}
		rho[t] = s
	}
}

// traceProduct returns tr(ρ·H_j) = Σ ρ[i][k]·H_j[k][i] over the
// control's nonzero entries, in controlPattern's order, with the
// entries of ρ that rhoInto formed. Skipping the zero entries of H_j
// is exact: each would add ρ[i][k]·0, a zero of either sign for finite
// ρ, to a sum that starts at +0 and so can never be −0.
//
//epoc:hot
func traceProduct(rho []complex128, terms []ctrlTerm) complex128 {
	var s complex128
	for _, t := range terms {
		s += rho[t.rho] * t.v
	}
	return s
}

func cloneAmps(a [][]float64) [][]float64 {
	out := make([][]float64, len(a))
	for i := range a {
		out[i] = append([]float64(nil), a[i]...)
	}
	return out
}

// copyAmps copies src into the preallocated dst grid of the same shape.
func copyAmps(dst, src [][]float64) {
	for i := range src {
		copy(dst[i], src[i])
	}
}

// Runner produces an optimized pulse for a given slot count. The
// duration search calls it once per probe, so the search itself stays
// independent of the optimizer and tests can substitute synthetic ones.
type Runner func(slots int) Result

// Probes wraps a Runner so every duration-search probe opens one
// "qoc/duration_probe" child region of the pulse region: an obs timer,
// whose count is the probe count, and a trace span annotated with the
// probed slot count and the probe's achieved fidelity and iteration
// count. Slot counts are unique per search (the duration search
// memoizes probes), which keeps sibling probe spans canonically
// orderable and traced compiles byte-identical across worker counts.
func Probes(pulse trace.Region, run Runner) Runner {
	return func(slots int) Result {
		sp := pulse.Child("qoc/duration_probe").SetInt("slots", int64(slots))
		defer sp.End()
		res := run(slots)
		sp.SetFloat("fidelity", res.Fidelity).SetInt("iters", int64(res.Iterations))
		return res
	}
}

// SearchDuration finds the smallest slot count in [minSlots, maxSlots]
// whose fidelity reaches target, using binary search over the
// quantized slot grid (the AccQOC strategy). It returns the best pulse
// found; if even maxSlots cannot reach the target, the maxSlots result
// is returned with its achieved fidelity. It is SearchDurationFrom
// started at maxSlots: the first probe is the longest pulse, then the
// search bisects [minSlots, maxSlots].
func SearchDuration(g *faultclock.Gate, minSlots, maxSlots, step int, target float64, run Runner) Result {
	return SearchDurationFrom(g, minSlots, maxSlots, maxSlots, step, target, run)
}

// SearchDurationFrom is the duration search started at a predicted
// slot count. The slot grid is minSlots, minSlots+step, … up to
// maxSlots; start snaps up to the first grid point at or above it
// (clamped to the grid's ends) and is probed first:
//
//   - if it reaches the target, the search bisects [minSlots, start];
//   - if it misses, maxSlots is probed next — a miss there returns the
//     maxSlots result, a hit bisects (start, maxSlots].
//
// A probe costs time in proportion to its slot count, so a start near
// the answer skips the long probes of a full-range search, which
// always succeed and dominate its cost. With start ≥ maxSlots the
// probe sequence is exactly SearchDuration's.
//
// The gate g (nil for unbudgeted searches) is checked before every
// probe (faultclock.SiteDurationProbe), and a probe that itself
// stopped early (Result.Err non-nil) stops the search. In both
// early-exit cases the search returns its best-so-far: the best
// Result across the probes that ran — target-reaching probes beat
// higher raw fidelity, and shorter target-reaching pulses beat longer
// ones — with Err set to the cause. A budget exit therefore still
// yields a usable (if longer-than-optimal) pulse; a cancellation exit
// tells the caller to discard it. Under a budget the first probe, and
// so the earliest best-so-far, is the start point, not maxSlots.
func SearchDurationFrom(g *faultclock.Gate, minSlots, start, maxSlots, step int, target float64, run Runner) Result {
	if minSlots < 1 {
		minSlots = 1
	}
	if step < 1 {
		step = 1
	}
	// Quantized grid of candidate slot counts; first is the index of
	// the start point on it.
	var grid []int
	first := -1
	for s := minSlots; s < maxSlots; s += step {
		if first < 0 && s >= start {
			first = len(grid)
		}
		grid = append(grid, s)
	}
	grid = append(grid, maxSlots)
	last := len(grid) - 1
	if first < 0 {
		first = last
	}

	best := Result{Fidelity: -1}
	haveBest := false
	// improves reports whether b beats the incumbent a.
	improves := func(a, b Result) bool {
		aHit, bHit := a.Fidelity >= target, b.Fidelity >= target
		if aHit != bHit {
			return bHit
		}
		if aHit && bHit {
			return b.Slots < a.Slots
		}
		return b.Fidelity > a.Fidelity
	}
	cache := map[int]Result{}
	memo := func(slots int) (Result, error) {
		if r, ok := cache[slots]; ok {
			return r, nil
		}
		if err := g.Check(faultclock.SiteDurationProbe); err != nil {
			return Result{}, err
		}
		r := run(slots)
		cache[slots] = r
		// Canceled probes are discarded; budget-degraded probes still
		// carry a best-so-far pulse and may stand as the search result.
		if r.Err == nil || faultclock.IsBudget(r.Err) {
			if !haveBest || improves(best, r) {
				best = r
				haveBest = true
			}
		}
		return r, r.Err
	}
	partial := func(err error) Result {
		out := best
		out.Err = err
		return out
	}

	lo, hi := 0, first
	r, err := memo(grid[first])
	if err != nil {
		return partial(err)
	}
	if r.Fidelity < target {
		if first == last {
			return r // even the longest pulse fails; report it
		}
		lo, hi = first+1, last
		if r, err = memo(grid[last]); err != nil {
			return partial(err)
		}
		if r.Fidelity < target {
			return r
		}
	}
	for lo < hi {
		mid := (lo + hi) / 2
		rm, err := memo(grid[mid])
		if err != nil {
			return partial(err)
		}
		if rm.Fidelity >= target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	r, err = memo(grid[lo])
	if err != nil {
		return partial(err)
	}
	return r
}

// DurationSearch is SearchDuration specialized to GRAPE.
func DurationSearch(m *Model, target *linalg.Matrix, minSlots, maxSlots int, step int, cfg GRAPEConfig) Result {
	cfg.defaults()
	return SearchDuration(cfg.Gate, minSlots, maxSlots, step, cfg.Target, Probes(cfg.Region, func(slots int) Result {
		return GRAPE(m, target, slots, cfg)
	}))
}
