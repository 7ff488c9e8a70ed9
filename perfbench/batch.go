package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"epoc/internal/benchcirc"
	"epoc/internal/circuit"
	"epoc/internal/core"
	"epoc/internal/gate"
	"epoc/internal/hardware"
	"epoc/internal/pulse"
	"epoc/internal/qoc"
	"epoc/internal/sim"
	"epoc/internal/synth"
)

// item is one circuit of a workload, with the schedule latency of its
// gate-based lowering: the baseline the paper's latency gains are
// measured against.
type item struct {
	name   string
	circ   *circuit.Circuit
	gateNS float64
}

// batchSpec describes a batch workload: its QOC mode and circuit set.
type batchSpec struct {
	mode  core.QOCMode
	items func(seed int64) ([]item, error)
}

var batchSpecs = map[string]batchSpec{
	"synth_cold": {mode: core.QOCEstimate, items: synthColdItems},
	"grape_cold": {mode: core.QOCFull, items: grapeColdItems},
	"zx_wide":    {mode: core.QOCEstimate, items: zxWideItems},
}

// synthColdItems is the 25-circuit corpus plus ten draws of the Fig. 5
// random generator. Each draw keeps a fixed width and depth (n 4–9,
// depth 20–65) so the seed changes gate content, not problem size.
func synthColdItems(seed int64) ([]item, error) {
	var items []item
	for _, name := range benchcirc.AllNames() {
		c, err := benchcirc.Get(name)
		if err != nil {
			return nil, err
		}
		items = append(items, item{name: name, circ: c})
	}
	for i := 0; i < 10; i++ {
		n, depth := 4+i%6, 20+5*i
		items = append(items, item{name: fmt.Sprintf("rand%d", i),
			circ: benchcirc.RandomCircuit(n, depth, seed*1000+int64(i))})
	}
	return items, nil
}

// grapeColdItems is the cold full-GRAPE suite in an order the seed
// permutes: qaoa and qft from ROADMAP item 1's suite, and six corpus
// circuits of about 1–2 s each. One compile's time wanders by about 9%
// from one run to the next, so the suite's metrics rest on eight
// compiles rather than three; dnn (about 7 s) would leave room for
// fewer. The circuits and the GRAPE seed stay fixed: GRAPE's work
// depends on its seed by more than the benchmark's bounds allow.
func grapeColdItems(seed int64) ([]item, error) {
	names := []string{"qaoa", "qft", "bv", "dj", "ghz", "simon", "teleport", "wstate"}
	rand.New(rand.NewSource(seed)).Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	var items []item
	for _, name := range names {
		c, err := benchcirc.Get(name)
		if err != nil {
			return nil, err
		}
		items = append(items, item{name: name, circ: c})
	}
	return items, nil
}

// zxWideItems is three 48-qubit brickwork circuits of 8 layers. At 64
// qubits one pass took half a run, and runs of one or two passes spread
// 11% across seeds.
func zxWideItems(seed int64) ([]item, error) {
	var items []item
	for i := int64(0); i < 3; i++ {
		items = append(items, item{name: fmt.Sprintf("layered48_%d", i), circ: benchcirc.RandomLayered(48, 8, seed*1000+i)})
	}
	return items, nil
}

// compileOptions is the batch configuration: EPOC on a linear chain,
// one worker, pipeline defaults otherwise, and caches that start empty
// for every compile.
func compileOptions(mode core.QOCMode, n int) core.Options {
	return core.Options{
		Strategy:   core.EPOC,
		Device:     hardware.LinearChain(n),
		Mode:       mode,
		Workers:    1,
		Library:    pulse.NewLibrary(true),
		SynthCache: synth.NewCache(),
	}
}

func compileOnce(ctx context.Context, spec batchSpec, it item) (*core.Result, error) {
	return core.CompileContext(ctx, it.circ, compileOptions(spec.mode, it.circ.NumQubits))
}

// gateBasedLatency is the schedule latency of c lowered gate by gate.
func gateBasedLatency(c *circuit.Circuit) (float64, error) {
	res, err := core.Compile(c, core.Options{Strategy: core.GateBased, Device: hardware.LinearChain(c.NumQubits)})
	if err != nil {
		return 0, err
	}
	return res.Latency, nil
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 5

// warmupCircuit is compiled once per setup so lazy runtime set-up (heap
// growth, first-use page faults) is paid before timing starts.
const warmupCircuit = "bb84"

// batchSetup builds the workload's circuits and their gate-based
// baselines, and compiles the warm-up circuit in the workload's mode.
func batchSetup(spec batchSpec, seed int64) ([]item, error) {
	items, err := spec.items(seed)
	if err != nil {
		return nil, err
	}
	for i := range items {
		if items[i].gateNS, err = gateBasedLatency(items[i].circ); err != nil {
			return nil, fmt.Errorf("%s: gate-based baseline: %w", items[i].name, err)
		}
	}
	w, err := benchcirc.Get(warmupCircuit)
	if err != nil {
		return nil, err
	}
	if _, err := compileOnce(context.Background(), spec, item{circ: w}); err != nil {
		return nil, fmt.Errorf("warm-up compile: %w", err)
	}
	return items, nil
}

func runBatch(cfg config) (*run, error) {
	// A batch compile runs on one worker; one processor keeps the
	// garbage collector on that thread too, which made pass times
	// markedly steadier on a shared 2-vCPU host.
	runtime.GOMAXPROCS(1)
	spec := batchSpecs[cfg.workload]
	var items []item
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if items, err = batchSetup(spec, cfg.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if cfg.trace {
		return traceBatch(cfg, spec, items)
	}
	r := newRun()
	ctx := context.Background()
	perItem := make([][]float64, len(items))
	first := make([]*core.Result, len(items))
	var all, passes []float64
	var speed speedometer
	speed.sample(3)
	measured := 0.0
	// Passes run whole: another starts only if it should end within the
	// run's time, so every circuit has the same number of samples.
	var last time.Duration
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start)+last <= cfg.seconds; pass++ {
		var work time.Duration
		for i, it := range items {
			// Each compile starts from a collected heap, so the garbage of
			// the previous compile and of the speed reference is not
			// charged to it.
			runtime.GC()
			t0 := time.Now()
			res, err := compileOnce(ctx, spec, it)
			d := time.Since(t0)
			work += d
			speed.after(d)
			ms := float64(d.Nanoseconds()) / 1e6
			if err != nil || res.Degraded {
				r.ops.record(false)
				r.fail("%s: compile error %v, degraded %v", it.name, err, res != nil && res.Degraded)
				continue
			}
			perItem[i] = append(perItem[i], ms)
			all = append(all, ms)
			if pass == 0 {
				first[i] = res
				continue // recorded once the oracle has checked it
			}
			// Output is deterministic for a given input; drift across
			// passes is a defect of the program or the benchmark, never
			// noise.
			//epoc:lint-ignore floatcmp determinism is bitwise: any difference is drift
			same := res.Latency == first[i].Latency && res.Fidelity == first[i].Fidelity
			r.ops.record(same)
			if !same {
				r.fail("%s: pass %d drifted: latency %v→%v fidelity %v→%v", it.name, pass,
					first[i].Latency, res.Latency, first[i].Fidelity, res.Fidelity)
			}
		}
		// The next pass takes about as long, plus its reference slices.
		last = time.Duration(float64(work) * (1 + refShare))
		passes = append(passes, work.Seconds())
		measured += work.Seconds()
	}
	k := speed.scale()
	var medians, gains, fidelities []float64
	for i, it := range items {
		if first[i] == nil {
			continue
		}
		r.ops.record(checkOutput(r, it, first[i], spec.mode))
		medians = append(medians, k*median(perItem[i]))
		gains = append(gains, it.gateNS/first[i].Latency)
		fidelities = append(fidelities, first[i].Fidelity)
	}
	r.set("setup_s", "s", k*median(setups))
	r.set("suite_s", "s", k*median(passes))
	r.set("compile_ms.geomean", "ms", geomean(medians))
	r.set("cold_ms.p50", "ms", k*1e3*median(passes)/float64(len(items)))
	r.set("requests_per_s", "1/s", float64(len(all))/measured/k)
	r.set("ok_ratio", "ratio", r.ops.okRatio())
	r.set("latency_gain.geomean", "ratio", geomean(gains))
	r.set("esp_fidelity.geomean", "ratio", geomean(fidelities))
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d passes, %d compiles, speed scale %.3f over %d reference samples\n",
		cfg.workload, cfg.seed, len(passes), len(all), k, len(speed.samples))
	return r, nil
}

// Oracle limits. equivQubits is the widest circuit the state-vector
// oracle checks (the pipeline's own ZX verification stops there too);
// equivTol bounds the infidelity between input and lowered circuit on
// each probe state, well above the accumulated synthesis error.
const (
	equivQubits  = 12
	equivTol     = 1e-4
	fidelitySlop = 1e-9
)

// checkOutput is the correctness oracle for one compile. Result.Lowered
// must implement the input circuit (checked by simulation up to
// equivQubits qubits; wider outputs have no independent oracle and are
// only required to complete undegraded). In full mode every pulse is
// rebuilt from its amplitudes on the device model and must reach the
// fidelity target for the unitary it was scheduled for.
func checkOutput(r *run, it item, res *core.Result, mode core.QOCMode) bool {
	ok := true
	if res.Lowered == nil {
		r.fail("%s: no lowered circuit", it.name)
		return false
	}
	if it.circ.NumQubits <= equivQubits {
		if inf := maxInfidelity(it.circ, res.Lowered); inf > equivTol {
			r.fail("%s: lowered circuit diverges from input: infidelity %.3g", it.name, inf)
			ok = false
		}
	}
	if mode == core.QOCFull && !pulsesReachTarget(r, it, res) {
		ok = false
	}
	return ok
}

// maxInfidelity runs both circuits on three fixed product states and
// returns the worst 1 − |⟨a|b⟩|².
func maxInfidelity(a, b *circuit.Circuit) float64 {
	worst := 0.0
	for i := 0; i < 3; i++ {
		s := sim.NewState(a.NumQubits)
		for q := 0; q < a.NumQubits; q++ {
			theta := 0.9*float64(i+1) + 0.37*float64(q)
			phi := 1.1*float64(i+1) - 0.23*float64(q)
			s.ApplyMatrix(gate.New(gate.U3, theta, phi, 0.5).Matrix(), []int{q})
		}
		sa, sb := s.Clone(), s.Clone()
		sa.Run(a)
		sb.Run(b)
		worst = math.Max(worst, 1-sa.Fidelity(sb))
	}
	return worst
}

// fidelityTarget is the pipeline's default QOC fidelity target.
const fidelityTarget = 0.999

// pulsesReachTarget rebuilds each scheduled pulse. The schedule holds
// one pulse per op of Regroup(Lowered, 2), in op order.
func pulsesReachTarget(r *run, it item, res *core.Result) bool {
	pulsed := synth.Regroup(res.Lowered, 2)
	items := res.Schedule.Items
	if len(items) != len(pulsed.Ops) {
		r.fail("%s: %d pulses for %d regrouped ops", it.name, len(items), len(pulsed.Ops))
		return false
	}
	dev := hardware.LinearChain(it.circ.NumQubits)
	for i, op := range pulsed.Ops {
		p := items[i].Pulse
		if len(p.Amps) == 0 {
			r.fail("%s: pulse %d has no amplitudes", it.name, i)
			return false
		}
		f := qoc.Fidelity(dev.BlockModel(len(op.Qubits)).Propagate(p.Amps), op.G.Matrix())
		if f < fidelityTarget-fidelitySlop {
			r.fail("%s: pulse %d (%s) rebuilds to fidelity %.6f < %g", it.name, i, op.G.Kind, f, fidelityTarget)
			return false
		}
	}
	return true
}
