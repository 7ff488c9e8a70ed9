// Package synth implements circuit synthesis for EPOC: QSearch-style
// A* search over CNOT placements with numerically instantiated
// variable unitary gates (Algorithm 2 of the paper), single-qubit ZYZ
// synthesis, and the VUG regrouping pass that aggregates synthesized
// gates into QOC-sized unitary blocks.
package synth

import (
	"container/heap"
	"math"
	"math/rand"
	"sync"

	"epoc/internal/circuit"
	"epoc/internal/faultclock"
	"epoc/internal/gate"
	"epoc/internal/linalg"
	"epoc/internal/opt"
	"epoc/internal/trace"
)

// placement is one CNOT in a QSearch template.
type placement struct{ ctrl, tgt int }

// template is a parameterized circuit: a U3 layer on every qubit, then
// for each CNOT placement a CX followed by U3s on its two qubits.
type template struct {
	n          int
	placements []placement
}

func (t *template) paramCount() int { return 3 * (t.n + 2*len(t.placements)) }

// toCircuit renders the instantiated template as a circuit of U3 VUGs
// and CNOTs in a canonical gauge (gaugePush), dropping the U3s that are
// identity up to phase, and returns the circuit with its distance from
// ev's target. A U3 is a drop candidate when its own HS cost from the
// identity is below instantiateTol; a drop is kept only while the
// circuit stays under instantiateTol, or, for a circuit that is not,
// while its distance does not grow.
func (t *template) toCircuit(ev *evaluator, params []float64) (*circuit.Circuit, float64) {
	x := t.gaugePush(params)
	ev.reset(t)
	dist := ev.objective(x)
	drop := make([]bool, len(x)/3)
	for i := range drop {
		v := x[3*i : 3*i+3]
		if u3Cost(v[0], v[1], v[2]) >= instantiateTol {
			continue
		}
		theta, phi, lam := v[0], v[1], v[2]
		v[0], v[1], v[2] = 0, 0, 0
		if d := ev.objective(x); d < instantiateTol || d <= dist {
			drop[i], dist = true, d
			continue
		}
		v[0], v[1], v[2] = theta, phi, lam
	}

	c := circuit.New(t.n)
	i := 0
	emit1q := func(q int) {
		if !drop[i] {
			c.Append(gate.New(gate.U3, x[3*i], x[3*i+1], x[3*i+2]), q)
		}
		i++
	}
	for q := 0; q < t.n; q++ {
		emit1q(q)
	}
	for _, pl := range t.placements {
		c.Append(gate.New(gate.CX), pl.ctrl, pl.tgt)
		emit1q(pl.ctrl)
		emit1q(pl.tgt)
	}
	return c, dist
}

// gaugePush returns a copy of params in which every U3 whose next CX
// uses its qubit as control hands its φ to the U3 that follows that CX
// on the control. U3(θ,φ,λ) = P(φ)·U3(θ,0,λ) with P(φ) = diag(1, e^{iφ}),
// P commutes with a CX on its control, and U3(θ₂,φ₂,λ₂)·P(φ) =
// U3(θ₂,φ₂,λ₂+φ), so the template's unitary is unchanged, global phase
// included. It fixes the part of the gauge freedom L-BFGS leaves open
// that lets a Z phase sit on either side of a CX's control, so
// instantiations that differ only there emit the same gates. It is
// skipped when either U3 is already a drop candidate for toCircuit, so
// it can turn a U3 into a candidate but never one out of it.
func (t *template) gaugePush(params []float64) []float64 {
	x := append([]float64(nil), params...)
	last := make([]int, t.n) // index of the latest U3 on each qubit
	for q := range last {
		last[q] = q
	}
	for j, pl := range t.placements {
		from, to := 3*last[pl.ctrl], 3*(t.n+2*j)
		if u3Cost(x[from], x[from+1], x[from+2]) >= instantiateTol && u3Cost(x[to], x[to+1], x[to+2]) >= instantiateTol {
			x[to+2] += x[from+1]
			x[from+1] = 0
		}
		last[pl.ctrl], last[pl.tgt] = t.n+2*j, t.n+2*j+1
	}
	return x
}

// u3Cost is the HS cost 1 - |tr U3(θ,φ,λ)|/2 of a U3 from the identity:
// tr U3 = cos(θ/2)·(1 + e^{i(φ+λ)}), whose modulus is
// 2·|cos(θ/2)·cos((φ+λ)/2)|.
func u3Cost(theta, phi, lam float64) float64 {
	return 1 - math.Abs(math.Cos(theta/2)*math.Cos((phi+lam)/2))
}

// instantiate fits the template's parameters to the target with
// multistart L-BFGS over the HS cost. Returns the best parameters and
// their cost. ev evaluates the objective and gradient; instantiate
// points it at t. Random restarts start from draws's next values.
func (t *template) instantiate(ev *evaluator, seeds [][]float64, draws *restartDraws, budget int) ([]float64, float64) {
	np := t.paramCount()
	ev.reset(t)

	bestF := math.Inf(1)
	var bestX []float64
	try := func(x0 []float64) {
		res := opt.LBFGS(ev.objective, ev.gradient, x0, opt.LBFGSConfig{MaxIter: budget, GradTol: 1e-10, Tol: 1e-14})
		if res.F < bestF {
			bestF = res.F
			bestX = res.X
		}
	}
	for _, s := range seeds {
		if len(s) == np {
			try(s)
		}
		if bestF < instantiateTol {
			return bestX, bestF
		}
	}
	restarts := 2
	if len(t.placements) > 2 {
		restarts = 3
	}
	for r := 0; r < restarts && bestF >= instantiateTol; r++ {
		x0 := make([]float64, np)
		draws.fill(x0)
		for i := range x0 {
			x0[i] = x0[i]*2*math.Pi - math.Pi
		}
		try(x0)
	}
	return bestX, bestF
}

const instantiateTol = 1e-10

// drawStream is the Float64 stream of rand.NewSource(seed), kept as
// far as any search has read it. Its i-th value is the i-th draw of
// that source whichever search extends it, so a search that reads from
// the start sees what a fresh rand.New(rand.NewSource(seed)) would give
// it, at any worker count.
type drawStream struct {
	mu   sync.Mutex // guards: rng, vals
	rng  *rand.Rand
	vals []float64
}

// read copies the values from index from on into dst, drawing any not
// yet drawn.
func (s *drawStream) read(from int, dst []float64) {
	s.mu.Lock()
	for len(s.vals) < from+len(dst) {
		s.vals = append(s.vals, s.rng.Float64())
	}
	copy(dst, s.vals[from:])
	s.mu.Unlock()
}

// defaultDraws is the stream of Options' default seed, the one every
// search in the pipeline uses, shared by the whole process.
var defaultDraws = &drawStream{rng: rand.New(rand.NewSource(1))}

// restartDraws is one search's cursor into its seed's stream.
type restartDraws struct {
	stream *drawStream
	next   int
}

// newRestartDraws reads the shared stream for the default seed and a
// stream of its own for any other.
func newRestartDraws(seed int64) *restartDraws {
	if seed == 1 {
		return &restartDraws{stream: defaultDraws}
	}
	return &restartDraws{stream: &drawStream{rng: rand.New(rand.NewSource(seed))}}
}

// fill sets dst to the cursor's next len(dst) draws.
func (d *restartDraws) fill(dst []float64) {
	d.stream.read(d.next, dst)
	d.next += len(dst)
}

// Options tunes the QSearch engine.
type Options struct {
	MaxCNOTs  int   // search depth limit (default: 3 for 2q, 14 for 3q)
	MaxNodes  int   // A* node expansion budget (default 64)
	OptBudget int   // L-BFGS iteration budget per instantiation (default 150)
	Seed      int64 // RNG seed for multistart (default 1)

	// Gate, when non-nil, is checked before every node expansion
	// (faultclock.SiteQSearchExpand). A cancellation or deadline stops
	// the search immediately; Result.Err classifies the exit and the
	// best-so-far circuit is still returned.
	Gate *faultclock.Gate

	// BudgetNodes, when > 0 and below MaxNodes, caps node expansions
	// deterministically: the search stops with Result.Err =
	// faultclock.ErrBudget after exactly that many expansions. Unlike a
	// deadline it does not depend on wall-clock time, so budgeted
	// compiles stay byte-identical across worker counts.
	BudgetNodes int

	// Region is the caller's instrumentation handle for the block being
	// synthesized (the zero value records nothing); the caller owns its
	// lifetime. Its recorder gets search effort under "synth/*": node
	// expansions, instantiation calls and their timer, and the achieved
	// distance/CNOT-count distributions per synthesized block. Its trace
	// span gets the search's outcome as attributes (nodes expanded,
	// CNOT count, achieved distance, stop reason) — deterministic
	// functions of (unitary, Options), so traced compiles stay
	// byte-identical across worker counts.
	Region trace.Region
}

func (o *Options) defaults(n int) {
	if o.MaxCNOTs == 0 {
		if n <= 2 {
			o.MaxCNOTs = 3
		} else {
			o.MaxCNOTs = 14
		}
	}
	if o.MaxNodes == 0 {
		o.MaxNodes = 64
	}
	if o.OptBudget == 0 {
		o.OptBudget = 150
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Result is a synthesized circuit with its achieved distance.
type Result struct {
	Circuit  *circuit.Circuit
	Distance float64
	CNOTs    int
	Nodes    int // A* nodes instantiated

	// Err classifies an early exit: nil when the search ran to
	// completion (target hit or MaxNodes), faultclock.ErrBudget when a
	// node or time budget stopped it (Circuit is the best-so-far and
	// usable as a degraded result), or the context's error when
	// canceled (the caller should discard the partial circuit).
	Err error
}

// node is an A* search state.
type node struct {
	placements []placement
	params     []float64
	dist       float64
	priority   float64
}

type nodeHeap []*node

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].priority < h[j].priority }
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// QSearch synthesizes a unitary over n = log2(dim) qubits into U3 VUGs
// and CNOTs using best-first search over CNOT placements (Algorithm 2).
// It returns the best circuit found; check Result.Distance against the
// caller's accuracy threshold.
func QSearch(target *linalg.Matrix, opts Options) Result {
	n := qubitsOf(target)
	if n == 1 {
		c := Synthesize1Q(target)
		return Result{Circuit: c, Distance: 0}
	}
	opts.defaults(n)
	draws := newRestartDraws(opts.Seed)

	rec := opts.Region.Recorder()
	record := func(res Result) Result {
		if r := opts.Region.Recorder(); r != nil {
			r.Add("synth/nodes", int64(res.Nodes))
			r.Observe("synth/distance", res.Distance)
			r.Observe("synth/cnots", float64(res.CNOTs))
		}
		opts.Region.SetInt("nodes", int64(res.Nodes)).
			SetInt("cnots", int64(res.CNOTs)).
			SetFloat("distance", res.Distance).
			SetStr("stop", stopReason(res.Err))
		return res
	}

	pairs := orderedPairs(n)
	ev := newEvaluator(target, n, opts.MaxCNOTs)
	open := &nodeHeap{}
	heap.Init(open)

	nodes := 0
	// gateCheck runs before every expansion: the injector/ctx/deadline
	// gate first (so "cancel at the Nth expansion" trips are observed
	// by that very check), then the deterministic node budget.
	gateCheck := func() error {
		if err := opts.Gate.Check(faultclock.SiteQSearchExpand); err != nil {
			return err
		}
		if opts.BudgetNodes > 0 && nodes >= opts.BudgetNodes {
			return faultclock.ErrBudget
		}
		return nil
	}

	expand := func(pls []placement, seeds [][]float64) *node {
		t := &template{n: n, placements: pls}
		sp := rec.Span("synth/instantiate")
		params, dist := t.instantiate(ev, seeds, draws, opts.OptBudget)
		sp.End()
		return &node{
			placements: pls,
			params:     params,
			dist:       dist,
			// A* priority: the cost-so-far is the CNOT count (what we
			// minimize), the heuristic is the scaled remaining distance.
			priority: float64(len(pls)) + 10*dist,
		}
	}

	if err := gateCheck(); err != nil {
		// Stopped before the root expansion: nothing synthesized at
		// all. Callers fall back to the block's gate realization (on
		// budget) or discard the compile (on cancellation).
		return record(Result{Distance: math.Inf(1), Err: err})
	}
	root := expand(nil, nil)
	nodes = 1
	best := root
	if root.dist < instantiateTol {
		t := &template{n: n, placements: root.placements}
		c, dist := t.toCircuit(ev, root.params)
		return record(Result{Circuit: c, Distance: dist, Nodes: nodes})
	}
	heap.Push(open, root)

	var stop error
search:
	for open.Len() > 0 && nodes < opts.MaxNodes {
		cur := heap.Pop(open).(*node)
		if len(cur.placements) >= opts.MaxCNOTs {
			continue
		}
		for _, pr := range pairs {
			if stop = gateCheck(); stop != nil {
				break search
			}
			pls := append(append([]placement(nil), cur.placements...), pr)
			// Seed the child with the parent's parameters extended by
			// identity U3s on the new layer.
			seed := append(append([]float64(nil), cur.params...), make([]float64, 6)...)
			child := expand(pls, [][]float64{seed})
			nodes++
			if child.dist < best.dist || (child.dist < instantiateTol && len(pls) < best.cnots()) {
				best = child
			}
			if child.dist < instantiateTol {
				t := &template{n: n, placements: child.placements}
				c, dist := t.toCircuit(ev, child.params)
				return record(Result{Circuit: c, Distance: dist, CNOTs: len(pls), Nodes: nodes})
			}
			heap.Push(open, child)
			if nodes >= opts.MaxNodes {
				break
			}
		}
	}
	t := &template{n: n, placements: best.placements}
	c, dist := t.toCircuit(ev, best.params)
	return record(Result{Circuit: c, Distance: dist, CNOTs: len(best.placements), Nodes: nodes, Err: stop})
}

func (n *node) cnots() int { return len(n.placements) }

// stopReason classifies a search exit for the trace attribute.
func stopReason(err error) string {
	switch {
	case err == nil:
		return "completed"
	case faultclock.IsBudget(err):
		return "budget"
	default:
		return "canceled"
	}
}

func orderedPairs(n int) []placement {
	var out []placement
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b {
				out = append(out, placement{a, b})
			}
		}
	}
	return out
}

func qubitsOf(m *linalg.Matrix) int {
	n := 0
	for d := m.Rows; d > 1; d >>= 1 {
		n++
	}
	return n
}
