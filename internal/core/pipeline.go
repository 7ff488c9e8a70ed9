package core

import (
	"fmt"
	"math"
	"sync"
	"time"

	"epoc/internal/circuit"
	"epoc/internal/faultclock"
	"epoc/internal/gate"
	"epoc/internal/linalg"
	"epoc/internal/obs"
	"epoc/internal/optimize"
	"epoc/internal/partition"
	"epoc/internal/pulse"
	"epoc/internal/qoc"
	"epoc/internal/route"
	"epoc/internal/sim"
	"epoc/internal/synth"
	"epoc/internal/zx"
)

// compileGateBased lowers every gate to its calibrated pulse.
func compileGateBased(c *circuit.Circuit, o Options) (*Result, error) {
	if err := o.stageGate(0).Check(faultclock.SiteStageLower); err != nil && !faultclock.IsBudget(err) {
		return nil, err
	}
	sp := o.region.Stage("stage/lower")
	defer sp.End()
	sched := pulse.NewSchedule(c.NumQubits)
	res := &Result{Schedule: sched}
	res.Stats.DepthBefore = c.Depth()
	res.Stats.GatesBefore = c.Len()
	for _, op := range c.Ops {
		if op.G.IsBlock() {
			return nil, fmt.Errorf("core: gate-based flow cannot lower block gate %s", op.G)
		}
		dur := o.Device.GateLatency(op.G.Kind)
		//epoc:lint-ignore floatcmp GateLatency returns exactly 0 only for virtual frame-change gates
		if dur == 0 {
			continue // virtual gate (frame change)
		}
		sched.Add(&pulse.Pulse{
			Label:    string(op.G.Kind),
			Qubits:   append([]int(nil), op.Qubits...),
			Duration: dur,
			Fidelity: o.Device.GateFidelity(len(op.Qubits)),
		})
		res.Stats.PulseCount++
	}
	return res, nil
}

// compileQOC runs the partition/synthesis/QOC flows (AccQOC, PAQOC,
// EPOC with and without grouping).
func compileQOC(c *circuit.Circuit, o Options) (*Result, error) {
	res := &Result{}
	res.Stats.DepthBefore = c.Depth()
	res.Stats.GatesBefore = c.Len()

	// g guards the stage boundaries: cancellation aborts the compile at
	// every boundary; total-budget expiry skips the expendable stages
	// (ZX, regrouping — the pipeline is correct without them) and lets
	// the mandatory ones degrade internally.
	g := o.stageGate(0)

	work := c
	// PAQOC is "program-aware": it cleans the gate stream first.
	if o.Strategy == PAQOC {
		work = optimize.Peephole(work)
	}
	// Stage 1: graph-based depth optimization (EPOC flows).
	if err := g.Check(faultclock.SiteStageZX); err != nil {
		if !faultclock.IsBudget(err) {
			return nil, err
		}
		res.DegradeReasons = append(res.DegradeReasons, "zx")
	} else if *o.UseZX {
		o.inStage("stage/zx", func() { work = zxOptimize(work, o.Obs) })
	}
	res.Stats.DepthAfterZX = work.Depth()
	res.Stats.GatesAfterZX = work.Len()

	// Optional topology mapping: decompose wide gates, insert SWAPs.
	// Runs after the ZX stage, whose extraction may rewire qubit pairs.
	// Routing is a correctness stage (the device can only execute
	// mapped circuits), so a budget never skips it.
	if o.Route {
		if err := g.Check(faultclock.SiteStageRoute); err != nil && !faultclock.IsBudget(err) {
			return nil, err
		}
		var routed *route.Result
		var err error
		o.inStage("stage/route", func() {
			basis := optimize.DecomposeToBasis(work)
			topo := route.NewTopology(o.Device.NumQubits, o.Device.Edges)
			routed, err = route.Route(basis, topo)
		})
		if err != nil {
			return nil, err
		}
		work = routed.Circuit
	}

	// Stage 2: greedy partition (Algorithm 1). Mandatory: later stages
	// consume blocks.
	if err := g.Check(faultclock.SiteStagePartition); err != nil && !faultclock.IsBudget(err) {
		return nil, err
	}
	var blocks []partition.Block
	o.inStage("stage/partition", func() {
		blocks = partition.Partition(work, partition.Options{
			MaxQubits: o.PartitionMaxQubits,
			MaxGates:  partitionMaxGates(o.Strategy),
		})
	})
	res.Stats.Blocks = len(blocks)

	// Stage 3: lower blocks. EPOC flows synthesize each block into
	// VUGs + CNOTs; AccQOC/PAQOC feed block unitaries straight to QOC.
	// The stage always runs; budget expiry degrades per block (each
	// falls back to its own gate realization).
	var lowered *circuit.Circuit
	epocFlow := o.Strategy == EPOC || o.Strategy == EPOCNoGroup
	if epocFlow {
		if err := g.Check(faultclock.SiteStageSynth); err != nil && !faultclock.IsBudget(err) {
			return nil, err
		}
		o.synthGate = o.stageGate(o.Budgets.SynthTime)
		var err error
		lowered, err = synthesizeBlocks(c.NumQubits, blocks, o, &res.Stats)
		if err != nil {
			return nil, err
		}
		res.Stats.VUGs = lowered.CountKind(gate.U3)
		res.Stats.CNOTsAfter = lowered.CountKind(gate.CX)
	} else {
		lowered = partition.ToBlockCircuit(c.NumQubits, blocks)
	}
	res.Lowered = lowered

	// Stage 4: regrouping (full EPOC and the coarse baselines; the
	// no-grouping ablation pulses every op individually). Expendable:
	// on budget expiry the fine-grained circuit is pulsed directly.
	var pulsed *circuit.Circuit
	switch o.Strategy {
	case EPOC:
		if err := g.Check(faultclock.SiteStageRegroup); err != nil {
			if !faultclock.IsBudget(err) {
				return nil, err
			}
			res.DegradeReasons = append(res.DegradeReasons, "regroup")
			pulsed = lowered
			break
		}
		o.inStage("stage/regroup", func() { pulsed = synth.Regroup(lowered, o.RegroupMaxQubits) })
	case EPOCNoGroup:
		pulsed = lowered
	default:
		// AccQOC/PAQOC blocks are already unitary ops of bounded size.
		pulsed = lowered
	}

	// Stage 5: QOC per distinct unitary, with library reuse (see
	// schedulePulses). QOC is mandatory (the schedule needs a pulse per
	// op) and degrades internally: budget-stopped optimizer runs keep
	// their best-so-far pulse, and a budget that expires before any
	// probe completes falls back to the calibrated estimator. Degraded
	// pulses serve only this compile and are never stored in the
	// library, so a shared library is not poisoned for later compiles
	// that run with a fresh budget.
	if err := g.Check(faultclock.SiteStageQOC); err != nil && !faultclock.IsBudget(err) {
		return nil, err
	}
	qocStart := time.Now()
	if err := schedulePulses(c.NumQubits, pulsed, o, res); err != nil {
		return nil, err
	}
	res.QOCTime = time.Since(qocStart)
	return res, nil
}

// schedulePulses runs stage 5 inside its stage region, in three steps
// that are the same in both modes and for every strategy:
//
//  1. Plan: one serial pass in op order resolves each op's unitary,
//     first against this compile's misses, then against o.Library.
//     The first op of a unitary found in neither counts a miss and
//     becomes a job; every other op counts a hit.
//  2. Run: runJobs computes each job's pulse exactly once and stores
//     the clean ones in o.Library.
//  3. Assemble: one placed pulse per op, read from the plan.
//
// The plan is serial and the jobs' results are consumed in job order,
// so Stats, schedules and traces are identical at any worker count.
func schedulePulses(n int, pulsed *circuit.Circuit, o Options, res *Result) error {
	o.qocGate = o.stageGate(o.Budgets.QOCTime)
	sp := o.region.Stage("stage/qoc")
	defer sp.End()
	o.region = sp
	// Freeze the warm-start candidate set before any worker runs: every
	// pulse in this compile selects its neighbour from the same
	// snapshot, not the live library, so pulses that concurrent
	// compiles store into a shared library cannot change the choice,
	// and the output cannot depend on worker scheduling. AccQOC keeps
	// its own MST warm-start policy.
	if o.Mode == QOCFull && *o.WarmStart && o.Strategy != AccQOC {
		o.warmCands = o.Library.Export()
	}
	st := &res.Stats
	// misses holds this compile's jobs under the library's own
	// equivalence; each maps to a placeholder that runJobs fills.
	misses := pulse.NewLibrary(o.Library.MatchGlobalPhase)
	planned := make([]*pulse.Pulse, pulsed.Len())
	var jobs []pulseJob
	for i, op := range pulsed.Ops {
		u := op.G.Matrix()
		k := o.Library.Key(u)
		p, hit := misses.Get(k)
		if !hit {
			p, hit = o.Library.Get(k)
		}
		if hit {
			st.LibraryHits++
		} else {
			st.LibraryMisses++
			p = &pulse.Pulse{}
			misses.Put(k, p)
			jobs = append(jobs, pulseJob{u: u, key: k, op: op, p: p})
		}
		planned[i] = p
	}
	if err := runJobs(jobs, o, st); err != nil {
		return err
	}
	sched := pulse.NewSchedule(n)
	res.Schedule = sched
	for i, op := range pulsed.Ops {
		p := planned[i]
		sched.Add(&pulse.Pulse{
			Label:    p.Label,
			Qubits:   append([]int(nil), op.Qubits...),
			Duration: p.Duration,
			Fidelity: p.Fidelity,
			Slots:    p.Slots,
			Amps:     p.Amps,
		})
		st.PulseCount++
	}
	return nil
}

// synthesizeBlocks runs stage 3 of the EPOC flows: every eligible
// block (non-bridge, ≤3 qubits, more than one gate) is synthesized
// into VUGs + CNOTs through the synthesis cache, with distinct
// unitaries dispatched to a pool of o.Workers goroutines. The output
// is byte-identical for every worker count:
//
//   - Eligible blocks are first grouped by unitary up to global phase
//     (verified, not just fingerprinted), electing the lowest block
//     index as each class representative. The class→result mapping is
//     therefore a pure function of the circuit, not of scheduling.
//   - Only representatives are dispatched; workers write results into
//     a slice indexed by class, and the lowered circuit is assembled
//     serially in block order afterwards.
//   - QSearch itself is deterministic given (unitary, synth.Options):
//     its multistart RNG is seeded per call, and its phase-invariant
//     cost makes phase-equivalent duplicates converge identically.
//
// Blocks whose synthesis misses the accuracy threshold fall back to
// their own U3/CX realization (never a cached one, which would make
// the output depend on which duplicate computed first).
//
// Cancellation returns the context's error after every worker has
// drained (the pool always joins — no leaked goroutines); budget
// expiry instead degrades block by block to the fallback realization
// and counts Stats.SynthDegraded.
func synthesizeBlocks(n int, blocks []partition.Block, o Options, st *Stats) (*circuit.Circuit, error) {
	sp := o.region.Stage("stage/synth")
	defer sp.End()
	type class struct {
		u   *linalg.Matrix
		key synth.Key // u's, formed once and handed to the cache
		dup int       // eligible blocks beyond the representative
	}
	classOf := make([]int, len(blocks))
	var classes []class
	byKey := map[string][]int{} // fingerprint -> class indices (collision chain)
	for i := range blocks {
		classOf[i] = -1
		b := &blocks[i]
		if b.Bridge || len(b.Qubits) > 3 || b.Local.Len() <= 1 {
			continue
		}
		u := b.Unitary()
		key := synth.KeyOf(u)
		fp := key.String()
		ci := -1
		for _, cand := range byKey[fp] {
			if classes[cand].u.Rows == u.Rows && linalg.PhaseDistance(classes[cand].u, u) < synth.CacheTol {
				ci = cand
				break
			}
		}
		if ci < 0 {
			ci = len(classes)
			classes = append(classes, class{u: u, key: key})
			byKey[fp] = append(byKey[fp], ci)
		} else {
			classes[ci].dup++
		}
		classOf[i] = ci
	}

	type outcome struct {
		circ   *circuit.Circuit
		ok     bool
		status synth.CacheStatus
		err    error
	}
	results := runOrdered(o.Workers, len(classes), func(ci int) outcome {
		// The class index, qubit count and duplicate count are pure
		// functions of the circuit, so block spans sort canonically
		// regardless of which worker ran them.
		bsp := sp.Child("stage/synth/block").
			SetInt("class", int64(ci)).
			SetInt("qubits", int64(log2(classes[ci].u.Rows))).
			SetInt("dup", int64(classes[ci].dup))
		defer bsp.End()
		sopts := synth.Options{Gate: o.synthGate, BudgetNodes: o.Budgets.SynthNodes, Region: bsp}
		circ, ok, status, err := o.SynthCache.GetOrComputeKey(o.synthGate, classes[ci].key, func() (*circuit.Circuit, bool, error) {
			return synth.SynthesizeOutcome(classes[ci].u, sopts)
		})
		bsp.SetStr("cache", status.String()).SetBool("ok", ok)
		return outcome{circ: circ, ok: ok, status: status, err: err}
	})

	// Cancellation wins over everything: the pool has fully drained by
	// here, so returning the context's error leaks nothing, and the
	// partial per-class results are simply discarded.
	for ci := range classes {
		if err := results[ci].err; err != nil && !faultclock.IsBudget(err) {
			return nil, err
		}
	}

	// Cache accounting: in-compile duplicates are hits by construction;
	// representatives report what the (possibly shared) cache saw.
	// Coalesced lookups did not run a synthesis, so they count as hits
	// and are also counted on their own.
	for ci := range classes {
		st.SynthCacheHits += classes[ci].dup
		switch results[ci].status {
		case synth.CacheMiss:
			st.SynthCacheMisses++
		case synth.CacheHit:
			st.SynthCacheHits++
		case synth.CacheCoalesced:
			st.SynthCacheHits++
			st.SynthCacheCoalesced++
		}
	}

	// Serial assembly in block order keeps the lowered circuit, stats
	// and spans independent of worker scheduling.
	lowered := circuit.New(n)
	for i := range blocks {
		b := &blocks[i]
		local := b.Local
		if ci := classOf[i]; ci >= 0 {
			if out := results[ci]; out.ok {
				local = out.circ
			} else {
				local = decomposeFallback(b.Local)
				st.SynthFallback++
				if faultclock.IsBudget(out.err) {
					st.SynthDegraded++
				}
			}
		}
		for _, op := range local.Ops {
			qs := make([]int, len(op.Qubits))
			for j, lq := range op.Qubits {
				qs[j] = b.Qubits[lq]
			}
			lowered.Append(op.G, qs...)
		}
	}
	return lowered, nil
}

// pulseJob is one distinct unitary of stage 5 that the library did
// not hold: the first op that carries it, its library key, and the
// plan's placeholder pulse, which runJobs fills.
type pulseJob struct {
	u   *linalg.Matrix
	key pulse.Key
	op  circuit.Op
	p   *pulse.Pulse
}

// jobResult is one job's pulse, the Stats it counted and its error
// (see pulseForWarm).
type jobResult struct {
	p   *pulse.Pulse
	st  Stats
	err error
}

// runJobs computes every job's pulse exactly once. The strategy picks
// only the job order and the warm-start source: AccQOC in full mode
// runs along its similarity MST, warm-starting from parent pulses
// (runMST); every other flow runs on the o.Workers pool, warm-starting
// from the snapshot's nearest neighbour (pulseFor). Then, in job
// order, it fills the plan's placeholders, adds each job's Stats and
// stores the clean pulses in o.Library; budget-degraded pulses serve
// only this compile. A cancellation is returned once every job has
// been collected, so no worker outlives the call.
func runJobs(jobs []pulseJob, o Options, st *Stats) error {
	var results []jobResult
	if o.Strategy == AccQOC && o.Mode == QOCFull {
		results = runMST(jobs, o)
	} else {
		results = runOrdered(o.Workers, len(jobs), func(i int) (r jobResult) {
			r.p, r.err = pulseFor(jobs[i], i, o, &r.st)
			return r
		})
	}
	var canceled error
	for i, r := range results {
		if r.err != nil && !faultclock.IsBudget(r.err) {
			canceled = r.err
			continue
		}
		*jobs[i].p = *r.p
		st.QOCRuns += r.st.QOCRuns
		st.WarmStarts += r.st.WarmStarts
		st.QOCDegraded += r.st.QOCDegraded
		if r.err == nil {
			o.Library.Put(jobs[i].key, jobs[i].p)
		}
	}
	return canceled
}

// runMST runs the jobs in AccQOC's library-construction order: group
// them by size, span each group's similarity graph with an MST, and
// optimize along the tree, warm-starting each vertex from its parent's
// clean pulse. It runs serially, groups in first-occurrence order.
func runMST(jobs []pulseJob, o Options) []jobResult {
	results := make([]jobResult, len(jobs))
	var dims []int
	byDim := map[int][]int{} // dimension -> job indices
	for i, j := range jobs {
		d := j.u.Rows
		if byDim[d] == nil {
			dims = append(dims, d)
		}
		byDim[d] = append(byDim[d], i)
	}
	for _, d := range dims {
		group := byDim[d]
		us := make([]*linalg.Matrix, len(group))
		for k, i := range group {
			us[k] = jobs[i].u
		}
		order, parent := qoc.MSTOrder(us)
		for _, k := range order {
			var warm [][]float64
			if pk := parent[k]; pk >= 0 && results[group[pk]].err == nil {
				warm = results[group[pk]].p.Amps
			}
			i := group[k]
			r := &results[i]
			r.p, r.err = pulseForWarm(jobs[i], i, o, &r.st, warm)
		}
	}
	return results
}

// runOrdered runs fn(i) for every i < n on min(workers, n) goroutines
// and returns the results indexed by job, so callers consume them in
// job order whatever the scheduling. It returns only after every
// worker has exited; workers ≤ 1 runs the jobs serially in order.
func runOrdered[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := range out {
			out[i] = fn(i)
		}
		return out
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				out[i] = fn(i)
			}
		}()
	}
	for i := range out {
		work <- i
	}
	close(work)
	wg.Wait()
	return out
}

// log2 returns the base-2 logarithm of a power-of-two dimension.
func log2(dim int) int {
	n := 0
	for d := dim; d > 1; d >>= 1 {
		n++
	}
	return n
}

// pulseFor produces job i's pulse, via GRAPE or the calibrated
// estimator. With a warm-candidate snapshot in place (see
// schedulePulses) it seeds the optimizer from the nearest stored
// neighbour's amplitudes — the AccQOC similarity-reuse idea, driven by
// the persistent store instead of an MST over the current batch. The
// snapshot was taken before any of this compile's pulses ran, so the
// selection is a pure function of (snapshot, u) and worker-count
// invariant. Exact matches never reach here: the plan served them
// from the library.
func pulseFor(j pulseJob, i int, o Options, st *Stats) (*pulse.Pulse, error) {
	var warm [][]float64
	if len(o.warmCands) > 0 && o.Mode == QOCFull {
		if idx, dist := nearestWarm(o.warmCands, j.u, warmStartMaxDist); idx >= 0 {
			warm = o.warmCands[idx].P.Amps
			st.WarmStarts++
			o.Obs.Observe("qoc/warmstart/distance", dist)
		}
	}
	return pulseForWarm(j, i, o, st, warm)
}

// pulseForWarm is pulseFor with an optional GRAPE warm start.
//
// Error contract: a nil error is a clean pulse; faultclock.ErrBudget
// accompanies a usable degraded pulse (the optimizer's best-so-far,
// or the calibrated estimate when the budget expired before any probe
// completed) and increments Stats.QOCDegraded; any other error is a
// cancellation and the pulse is nil.
func pulseForWarm(j pulseJob, i int, o Options, st *Stats, warm [][]float64) (*pulse.Pulse, error) {
	if err := o.qocGate.Err(); err != nil {
		return nil, err
	}
	u, op := j.u, j.op
	k := len(op.Qubits)
	label := fmt.Sprintf("%s[%dq]", op.G.Kind, k)
	// One region per job; the job index distinguishes sibling spans
	// deterministically, since the plan numbers jobs in op order.
	tsp := o.region.Child("qoc/pulse").
		SetStr("label", label).
		SetInt("job", int64(i))
	defer tsp.End()
	if o.Mode == QOCEstimate {
		dur, fid := estimatePulse(op, o)
		tsp.SetBool("estimated", true).SetFloat("duration_ns", dur)
		return &pulse.Pulse{Label: label, Duration: dur, Fidelity: fid}, nil
	}
	model := o.Device.BlockModel(k)
	maxSlots := o.Device.MaxSlots(k)
	// The duration search starts at the estimator's prediction: most
	// blocks finish well below maxSlots, and each probe costs time in
	// proportion to its slot count.
	est, _ := estimatePulse(op, o)
	start := int(math.Ceil(est / o.Device.Dt))
	st.QOCRuns++
	cfg := qoc.GRAPEConfig{
		MaxIter:     o.GRAPEIters,
		Target:      fidelityTarget,
		Seed:        o.Seed,
		Gate:        o.qocGate,
		BudgetIters: o.Budgets.QOCIters,
		Region:      tsp,
	}
	// A nil warm start is a cold GRAPE run.
	run := func(slots int) qoc.Result { return qoc.WarmStartGRAPE(model, u, slots, warm, cfg) }
	r := qoc.SearchDurationFrom(o.qocGate, 2, start, maxSlots, slotStep(k), fidelityTarget, qoc.Probes(tsp, run))
	tsp.SetInt("slots", int64(r.Slots)).
		SetInt("iterations", int64(r.Iterations)).
		SetFloat("duration_ns", r.Duration).
		SetFloat("infidelity", 1-r.Fidelity)
	// Warm vs cold iteration counts land in separate distributions, so
	// a run's obs snapshot shows the warm-start savings directly.
	if warm != nil {
		tsp.SetBool("warm", true)
		o.Obs.Observe("qoc/warmstart/iterations", float64(r.Iterations))
	} else {
		o.Obs.Observe("qoc/coldstart/iterations", float64(r.Iterations))
	}
	if r.Err != nil {
		if !faultclock.IsBudget(r.Err) {
			tsp.SetStr("stop", "canceled")
			return nil, r.Err
		}
		st.QOCDegraded++
		tsp.SetStr("stop", "budget")
		if r.Slots <= 0 || r.Amps == nil {
			// The budget expired before any probe completed: fall back
			// to the calibrated estimator rather than an empty pulse.
			dur, fid := estimatePulse(op, o)
			tsp.SetBool("estimated", true)
			return &pulse.Pulse{Label: label, Duration: dur, Fidelity: fid}, faultclock.ErrBudget
		}
	}
	return &pulse.Pulse{
		Label:    label,
		Duration: r.Duration,
		Fidelity: r.Fidelity,
		Slots:    r.Slots,
		Amps:     r.Amps,
	}, r.Err
}

// fidelityTarget is the fidelity every block pulse is optimized to,
// and the one the estimator assumes.
const fidelityTarget = 0.999

// slotStep2Q is the duration-search grid step for a 2-qubit block.
const slotStep2Q = 8

// slotStep is the duration-search grid step for a k-qubit block.
func slotStep(k int) int {
	switch {
	case k <= 1:
		return 2
	case k == 2:
		return slotStep2Q
	default:
		return 2 * slotStep2Q
	}
}

// partitionMaxGates is the strategy's partition gate limit.
func partitionMaxGates(s Strategy) int {
	switch s {
	case AccQOC:
		// AccQOC slices the circuit into small uniform subcircuits.
		return 4
	case PAQOC:
		// PAQOC pulses mined gate patterns of a few gates each.
		return 6
	default:
		return 16
	}
}

// estimatePulse predicts a pulse's duration and fidelity from gate
// content, with constants calibrated against the GRAPE engine (1q ops
// ≈ 16 ns, CX-equivalents ≈ 96 ns on the default device).
func estimatePulse(op circuit.Op, o Options) (dur, fid float64) {
	const (
		oneQ = 16.0
		twoQ = 96.0
	)
	k := len(op.Qubits)
	switch {
	case op.G.Kind == gate.CX || op.G.Kind == gate.CZ:
		dur = twoQ
	case k == 1:
		dur = oneQ
	default:
		// Content heuristic for a block: its non-locality is bounded by
		// the Weyl volume; approximate with one CX-equivalent per qubit
		// pair plus one 1q layer.
		dur = twoQ*float64(k-1) + oneQ
	}
	// Quantize to the device slot grid.
	dur = math.Ceil(dur/o.Device.Dt) * o.Device.Dt
	return dur, fidelityTarget
}

// DepthOptimize exposes the graph-based depth-optimization stage on
// its own (used by the Figure 5 experiment and cmd/zxopt): it returns
// the shallowest equivalent of c found via ZX simplification,
// extraction and gate-level cleanup, never worse than c itself. Up to
// 12 qubits the returned circuit has been simulated against c.
func DepthOptimize(c *circuit.Circuit) *circuit.Circuit {
	return zxSelect(c, func(cand *circuit.Circuit) float64 { return float64(cand.Depth()) }, nil)
}

// zxOptimize is the pipeline's ZX stage. Unlike DepthOptimize it
// scores candidates by a pulse-latency proxy — the critical path with
// two-qubit ops an order of magnitude more expensive than single-qubit
// ops — because extraction can trade depth for extra CNOT scaffolding
// that would lengthen the final schedule.
func zxOptimize(c *circuit.Circuit, rec *obs.Recorder) *circuit.Circuit {
	return zxSelect(c, latencyProxy, rec)
}

func latencyProxy(c *circuit.Circuit) float64 {
	return c.CriticalPath(func(op circuit.Op) float64 {
		if len(op.Qubits) >= 2 {
			return 96
		}
		return 16
	})
}

// zxSelect returns the best of c and its rewritten candidates under
// score, so the pass never hurts. A candidate that would become the
// new best is first simulated against c (up to 12 qubits, see
// zxSelection.consider), so whatever zxSelect returns has been checked.
func zxSelect(c *circuit.Circuit, score func(*circuit.Circuit) float64, rec *obs.Recorder) *circuit.Circuit {
	sel := newZXSelection(c, score, rec)
	zxCandidates(c, sel.consider)
	return sel.best
}

// zxCandidates yields stage 1's rewrites of c in a fixed order:
// Peephole(c) and its merged single-qubit runs, then for each of the
// two ZX simplifications the extracted circuit, its Peephole and that
// Peephole's merged runs. An extraction that fails yields nothing.
//
// Both simplifications share one diagram: ToCircuit extracts from a
// clone, so the Simplify result is extracted and then carried on
// through the rest of FullSimplify (ReduceGadgets; the Simplify that
// FullSimplify begins with leaves a simplified diagram unchanged).
// When the gadget rewrites change nothing, the diagram is the Simplify
// one, whose candidates were already yielded; extracting it again could
// only yield their duplicates, which cannot win under zxSelection's
// strict <, so it is skipped.
func zxCandidates(c *circuit.Circuit, yield func(*circuit.Circuit)) {
	peep := optimize.Peephole(c)
	yield(peep)
	yield(optimize.MergeSingleQubitRuns(peep))
	g := zx.FromCircuit(c)
	g.Simplify()
	yieldExtraction(g, yield)
	if g.ReduceGadgets() {
		yieldExtraction(g, yield)
	}
}

// yieldExtraction yields the circuit extracted from g, its Peephole
// and that Peephole's merged runs; a failed extraction yields nothing.
func yieldExtraction(g *zx.Graph, yield func(*circuit.Circuit)) {
	out, err := g.ToCircuit()
	if err != nil {
		return
	}
	yield(out)
	peepOut := optimize.Peephole(out)
	yield(peepOut)
	yield(optimize.MergeSingleQubitRuns(peepOut))
}

// maxVerifyQubits bounds stage-1 verification: 2^12 amplitudes per
// state keeps a check well under a millisecond.
const maxVerifyQubits = 12

// zxSelection is stage 1's incumbent and its equivalence check. The
// input is run on three fixed product states once, at the first
// check, and every check compares a candidate's results with those.
type zxSelection struct {
	in        *circuit.Circuit
	score     func(*circuit.Circuit) float64
	rec       *obs.Recorder
	best      *circuit.Circuit
	bestScore float64

	seeds   []*sim.State // deterministicStates, built on the first check
	want    []*sim.State // seeds run through in
	scratch *sim.State
	mats    []*linalg.Matrix // the candidate's op matrices
}

func newZXSelection(in *circuit.Circuit, score func(*circuit.Circuit) float64, rec *obs.Recorder) *zxSelection {
	return &zxSelection{in: in, score: score, rec: rec, best: in, bestScore: score(in)}
}

// consider makes cand the incumbent if it scores strictly better and
// passes the equivalence check; a candidate that fails is counted in
// zx/verify/rejected and dropped.
func (z *zxSelection) consider(cand *circuit.Circuit) {
	s := z.score(cand)
	if s >= z.bestScore {
		return
	}
	if !z.equivalent(cand) {
		z.rec.Add("zx/verify/rejected", 1)
		return
	}
	z.best, z.bestScore = cand, s
}

// equivalent reports whether cand matches the input up to global
// phase on the deterministic product states, at fidelity 1 − 1e-9.
// Inputs wider than maxVerifyQubits pass unchecked.
func (z *zxSelection) equivalent(cand *circuit.Circuit) bool {
	n := z.in.NumQubits
	if cand.NumQubits != n {
		return false
	}
	if n > maxVerifyQubits {
		return true
	}
	if z.want == nil {
		z.seeds = deterministicStates(n, 3)
		for _, s := range z.seeds {
			w := s.Clone()
			w.Run(z.in)
			z.want = append(z.want, w)
		}
		z.scratch = sim.NewState(n)
	}
	// Build each op's matrix once for all three states.
	z.mats = z.mats[:0]
	for _, op := range cand.Ops {
		z.mats = append(z.mats, op.G.Matrix())
	}
	for i, seed := range z.seeds {
		copy(z.scratch.Amp, seed.Amp)
		for j, op := range cand.Ops {
			z.scratch.ApplyMatrix(z.mats[j], op.Qubits)
		}
		if z.want[i].Fidelity(z.scratch) < 1-1e-9 {
			return false
		}
	}
	return true
}

func deterministicStates(n, count int) []*sim.State {
	states := make([]*sim.State, count)
	for i := range states {
		s := sim.NewState(n)
		for q := 0; q < n; q++ {
			theta := 0.7*float64(i+1) + 0.31*float64(q)
			phi := 1.3*float64(i+1) - 0.17*float64(q)
			s.ApplyMatrix(gate.New(gate.U3, theta, phi, 0.4).Matrix(), []int{q})
		}
		states[i] = s
	}
	return states
}

// decomposeFallback renders a block's original gates in the U3/CX
// vocabulary so the synthesis fallback composes with regrouping.
func decomposeFallback(local *circuit.Circuit) *circuit.Circuit {
	basis := optimize.DecomposeToBasis(local)
	return optimize.MergeSingleQubitRuns(basis)
}
