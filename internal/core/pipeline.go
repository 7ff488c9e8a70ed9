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
			MaxGates:  o.PartitionMaxGates,
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
		o.Synth.Gate = o.synthGate
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

	// Stage 5: QOC per distinct unitary, with library reuse. The
	// distinct misses are optimized first — concurrently when
	// Workers > 1 — so the scheduling loop below only hits the library
	// and Stats.Library{Hits,Misses} are identical for every worker
	// count. The AccQOC baseline instead builds its library along a
	// minimum spanning tree of the unitary similarity graph with
	// warm-started GRAPE, as the original AccQOC paper does.
	//
	// QOC is mandatory (the schedule needs a pulse per op) and degrades
	// internally: budget-stopped optimizer runs keep their best-so-far
	// pulse, and a budget that expires before any probe completes falls
	// back to the calibrated estimator. Degraded pulses are never
	// stored in the library, so a shared library is not poisoned for
	// later compiles that run with a fresh budget.
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

// schedulePulses runs stage 5 inside its stage region: library prefill
// in full mode, then one placed pulse per op of the regrouped circuit.
func schedulePulses(n int, pulsed *circuit.Circuit, o Options, res *Result) error {
	o.qocGate = o.stageGate(o.Budgets.QOCTime)
	sp := o.region.Stage("stage/qoc")
	defer sp.End()
	o.region = sp
	// Freeze the warm-start candidate set before any worker runs: every
	// pulse in this compile selects its neighbour from the same
	// snapshot, so the choice — and therefore the output — cannot
	// depend on worker scheduling. AccQOC keeps its own MST warm-start
	// policy.
	if o.Mode == QOCFull && *o.WarmStart && o.Strategy != AccQOC {
		snapshotWarmCands(&o)
	}
	if o.Mode == QOCFull {
		if o.Strategy == AccQOC {
			if err := mstPrefill(pulsed, o, &res.Stats); err != nil {
				return err
			}
		} else if err := prefillLibrary(pulsed, o, &res.Stats); err != nil {
			return err
		}
	}
	sched := pulse.NewSchedule(n)
	res.Schedule = sched
	for _, op := range pulsed.Ops {
		u := op.G.Matrix()
		p, hit := o.Library.Lookup(u)
		if !hit {
			var err error
			p, err = pulseFor(u, op, o, &res.Stats)
			if err != nil && !faultclock.IsBudget(err) {
				return err
			}
			if err == nil {
				o.Library.Store(u, p)
			}
		}
		placed := &pulse.Pulse{
			Label:    p.Label,
			Qubits:   append([]int(nil), op.Qubits...),
			Duration: p.Duration,
			Fidelity: p.Fidelity,
			Slots:    p.Slots,
			Amps:     p.Amps,
		}
		sched.Add(placed)
		res.Stats.PulseCount++
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
//   - QSearch itself is deterministic given (unitary, Options.Synth):
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
		dup int // eligible blocks beyond the representative
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
		ci := -1
		for _, cand := range byKey[linalg.Fingerprint(u)] {
			if classes[cand].u.Rows == u.Rows && linalg.PhaseDistance(classes[cand].u, u) < synth.CacheTol {
				ci = cand
				break
			}
		}
		if ci < 0 {
			ci = len(classes)
			classes = append(classes, class{u: u})
			byKey[linalg.Fingerprint(u)] = append(byKey[linalg.Fingerprint(u)], ci)
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
		sopts := o.Synth
		sopts.Region = bsp
		circ, ok, status, err := o.SynthCache.GetOrCompute(o.synthGate, classes[ci].u, func() (*circuit.Circuit, bool, error) {
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
	// in Stats while keeping their own obs counter.
	for ci := range classes {
		st.SynthCacheHits += classes[ci].dup
		o.Obs.Add("synthcache/hit", int64(classes[ci].dup))
		switch results[ci].status {
		case synth.CacheMiss:
			st.SynthCacheMisses++
			o.Obs.Add("synthcache/miss", 1)
		case synth.CacheHit:
			st.SynthCacheHits++
			o.Obs.Add("synthcache/hit", 1)
		case synth.CacheCoalesced:
			st.SynthCacheHits++
			o.Obs.Add("synthcache/coalesced", 1)
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
				o.Obs.Add("synth/fallbacks", 1)
				if faultclock.IsBudget(out.err) {
					st.SynthDegraded++
					o.Obs.Add("synth/degraded", 1)
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

// pulseJob is one distinct uncached block unitary awaiting QOC, with
// the first op that carries it.
type pulseJob struct {
	u  *linalg.Matrix
	op circuit.Op
}

// distinctMisses lists the distinct (by fingerprint) unitaries of
// pulsed that the library does not hold yet, in first-occurrence
// order, and counts the prefill's dedup in obs.
func distinctMisses(pulsed *circuit.Circuit, o Options) []pulseJob {
	var jobs []pulseJob
	seen := map[string]bool{}
	for _, op := range pulsed.Ops {
		u := op.G.Matrix()
		fp := linalg.Fingerprint(u)
		if seen[fp] || o.Library.Peek(u) {
			continue
		}
		seen[fp] = true
		jobs = append(jobs, pulseJob{u: u, op: op})
	}
	if o.Obs != nil {
		o.Obs.Add("library/prefill/distinct", int64(len(jobs)))
		o.Obs.Add("library/prefill/deduped", int64(pulsed.Len()-len(jobs)))
	}
	return jobs
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

// prefillLibrary optimizes every distinct uncached block unitary on
// the o.Workers pool, then stores the results in job order, so the
// main scheduling loop only hits the library. Stats.QOCRuns is
// accumulated afterwards to stay race-free.
//
// Only clean results are stored: budget-degraded pulses are left for
// the sequential scheduling loop, which recomputes them (cheaply —
// the expired budget trips the optimizer immediately), counts the
// degradation once, and keeps them out of the shared library. A
// cancellation is returned after the pool drains; scheduling never
// starts.
func prefillLibrary(pulsed *circuit.Circuit, o Options, st *Stats) error {
	jobs := distinctMisses(pulsed, o)
	type done struct {
		p   *pulse.Pulse
		st  Stats
		err error
	}
	results := runOrdered(o.Workers, len(jobs), func(i int) done {
		var local Stats
		p, err := pulseFor(jobs[i].u, jobs[i].op, o, &local)
		return done{p: p, st: local, err: err}
	})
	var canceled error
	for i, d := range results {
		if d.err != nil {
			// Budget-degraded pulses stay out of the library (the
			// scheduling loop recomputes and accounts them); a
			// cancellation is returned once every job has been
			// collected.
			if !faultclock.IsBudget(d.err) {
				canceled = d.err
			}
			continue
		}
		o.Library.Store(jobs[i].u, d.p)
		st.QOCRuns += d.st.QOCRuns
		st.WarmStarts += d.st.WarmStarts
	}
	return canceled
}

// mstPrefill builds the pulse library in AccQOC's order: group the
// distinct uncached unitaries by size, span each group's similarity
// graph with an MST, and optimize along the tree with GRAPE warm
// starts from each vertex's parent pulse. Like prefillLibrary it
// stores only clean results and returns cancellation.
func mstPrefill(pulsed *circuit.Circuit, o Options, st *Stats) error {
	byDim := map[int][]pulseJob{}
	for _, j := range distinctMisses(pulsed, o) {
		byDim[j.u.Rows] = append(byDim[j.u.Rows], j)
	}
	for _, jobs := range byDim {
		us := make([]*linalg.Matrix, len(jobs))
		for i, j := range jobs {
			us[i] = j.u
		}
		order, parent := qoc.MSTOrder(us)
		pulses := make([]*pulse.Pulse, len(jobs))
		for _, idx := range order {
			var warm [][]float64
			if parent[idx] >= 0 && pulses[parent[idx]] != nil {
				warm = pulses[parent[idx]].Amps
			}
			p, err := pulseForWarm(jobs[idx].u, jobs[idx].op, o, st, warm)
			if err != nil {
				if !faultclock.IsBudget(err) {
					return err
				}
				continue // degraded: the scheduling loop recomputes it
			}
			pulses[idx] = p
			o.Library.Store(jobs[idx].u, p)
		}
	}
	return nil
}

// log2 returns the base-2 logarithm of a power-of-two dimension.
func log2(dim int) int {
	n := 0
	for d := dim; d > 1; d >>= 1 {
		n++
	}
	return n
}

// pulseFor produces a pulse for one block unitary, via GRAPE or the
// calibrated estimator. With a warm-candidate snapshot in place (see
// snapshotWarmCands) it seeds the optimizer from the nearest stored
// neighbour's amplitudes — the AccQOC similarity-reuse idea, driven by
// the persistent store instead of an MST over the current batch. The
// snapshot was taken before any of this compile's pulses ran, so the
// selection is a pure function of (snapshot, u) and worker-count
// invariant. Exact matches never reach here: they were served by the
// library lookup or skipped by the prefill's Peek.
func pulseFor(u *linalg.Matrix, op circuit.Op, o Options, st *Stats) (*pulse.Pulse, error) {
	var warm [][]float64
	if len(o.warmUs) > 0 && o.Mode == QOCFull {
		if idx, dist := qoc.Nearest(o.warmUs, u, warmStartMaxDist); idx >= 0 {
			warm = o.warmCands[idx].P.Amps
			st.WarmStarts++
			o.Obs.Add("qoc/warmstart", 1)
			o.Obs.Observe("qoc/warmstart/distance", dist)
		}
	}
	return pulseForWarm(u, op, o, st, warm)
}

// pulseForWarm is pulseFor with an optional GRAPE warm start.
//
// Error contract: a nil error is a clean pulse; faultclock.ErrBudget
// accompanies a usable degraded pulse (the optimizer's best-so-far,
// or the calibrated estimate when the budget expired before any probe
// completed) and increments Stats.QOCDegraded; any other error is a
// cancellation and the pulse is nil.
func pulseForWarm(u *linalg.Matrix, op circuit.Op, o Options, st *Stats, warm [][]float64) (*pulse.Pulse, error) {
	k := len(op.Qubits)
	label := fmt.Sprintf("%s[%dq]", op.G.Kind, k)
	// One region per pulse that reaches the optimizer or the estimator
	// (the pulse library absorbs the rest); the unitary fingerprint
	// prefix distinguishes sibling spans deterministically — the
	// prefill pools dedupe by fingerprint, so no two concurrent pulse
	// spans share one.
	tsp := o.region.Child("qoc/pulse").
		SetStr("label", label).
		SetStr("u", fingerprintPrefix(u))
	defer tsp.End()
	if o.Mode == QOCEstimate {
		if err := o.qocGate.Err(); err != nil {
			tsp.SetStr("stop", "canceled")
			return nil, err
		}
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
	var run qoc.Runner
	if o.Algorithm == AlgCRAB {
		cfg := qoc.CRABConfig{
			Target:      o.FidelityTarget,
			Seed:        o.Seed,
			Gate:        o.qocGate,
			BudgetIters: o.Budgets.QOCIters,
			Region:      tsp,
		}
		run = func(slots int) qoc.Result { return qoc.CRAB(model, u, slots, cfg) }
	} else {
		cfg := qoc.GRAPEConfig{
			MaxIter:     o.GRAPEIters,
			Target:      o.FidelityTarget,
			Seed:        o.Seed,
			Gate:        o.qocGate,
			BudgetIters: o.Budgets.QOCIters,
			Region:      tsp,
		}
		// A nil warm start is a cold GRAPE run.
		run = func(slots int) qoc.Result { return qoc.WarmStartGRAPE(model, u, slots, warm, cfg) }
	}
	r := qoc.SearchDurationFrom(o.qocGate, 2, start, maxSlots, slotStep(k, o), o.FidelityTarget, qoc.Probes(tsp, run))
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
		o.Obs.Add("qoc/degraded", 1)
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

// slotStep is the duration-search grid step for a k-qubit block.
func slotStep(k int, o Options) int {
	switch {
	case k <= 1:
		return 2
	case k == 2:
		return o.SlotStep2Q
	default:
		return 2 * o.SlotStep2Q
	}
}

// fingerprintPrefix shortens a unitary fingerprint to a readable trace
// attribute.
func fingerprintPrefix(u *linalg.Matrix) string {
	fp := linalg.Fingerprint(u)
	if len(fp) > 12 {
		fp = fp[:12]
	}
	return fp
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
	return dur, o.FidelityTarget
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
func zxCandidates(c *circuit.Circuit, yield func(*circuit.Circuit)) {
	peep := optimize.Peephole(c)
	yield(peep)
	yield(optimize.MergeSingleQubitRuns(peep))
	for _, simplify := range []func(*zx.Graph){(*zx.Graph).Simplify, (*zx.Graph).FullSimplify} {
		g := zx.FromCircuit(c)
		simplify(g)
		out, err := g.ToCircuit()
		if err != nil {
			continue
		}
		yield(out)
		peepOut := optimize.Peephole(out)
		yield(peepOut)
		yield(optimize.MergeSingleQubitRuns(peepOut))
	}
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
	for i, seed := range z.seeds {
		copy(z.scratch.Amp, seed.Amp)
		z.scratch.Run(cand)
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
