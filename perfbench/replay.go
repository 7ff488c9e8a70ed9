package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"epoc/internal/circuit"
	"epoc/internal/core"
	"epoc/internal/gate"
	"epoc/internal/hardware"
	"epoc/internal/linalg"
	"epoc/internal/optimize"
	"epoc/internal/partition"
	"epoc/internal/pulse"
	"epoc/internal/qoc"
	"epoc/internal/synth"
)

// Pipeline constants the replay repeats. The EPOC defaults are public
// knobs of core.Options (partition 2 qubits × 16 gates, regroup 2
// qubits, 200 GRAPE iterations, target 0.999, 2q slot step 8, seed 1);
// synthThreshold is synth's unexported acceptance distance. A drift in
// any of them shows as a replay cross-check mismatch.
const (
	partitionQubits = 2
	partitionGates  = 16
	regroupQubits   = 2
	grapeIters      = 200
	slotStep2Q      = 8
	qocSeed         = 1
	synthThreshold  = 1e-7
)

// layerCounts are the deterministic work counters of a replay, plus
// the few byte and extreme values read alongside them.
type layerCounts struct {
	zxGatesIn, zxGatesOut           int
	blocks                          int
	synthLookups, synthCalls        int
	synthOK, synthNodes             int
	synthDistMax                    float64
	synthAlloc                      uint64
	regroupOps                      int
	qocSearches, qocProbes          int
	qocIters                        int
	qocMaxIterProbes, qocWastedIter int
	qocAlloc                        uint64
	pulseFidMin                     float64
	lookups, hits, libEntries       int
}

// replayed is one circuit's replay output, for the cross-check.
type replayed struct {
	zxMatched        bool
	cnots, vugs      int
	searches, pulses int
	latency, esp     float64
}

// replay re-runs one compile layer by layer through each package's
// public calls, with a span around every call. Stages 4 and 5 (regroup,
// qoc, pulse) replay exactly on Regroup(res.Lowered, 2), the pipeline's
// own stage-3 output. Stages 1–3 (zx, partition, synth) replay from the
// input circuit; stage 1 uses core.DepthOptimize because the pipeline's
// latency-proxy scoring is private, so its output can differ from the
// pipeline's where the two scores prefer different candidates. The
// synthesis cache and pulse library hold what the compile started with:
// empty for a cold compile, warmed from a store for a served one.
func replay(tr *tracer, traceID int, c *circuit.Circuit, res *core.Result, mode core.QOCMode, acc *layerCounts, cache *synth.Cache, lib *pulse.Library) (replayed, error) {
	var out replayed
	root := tr.begin("replay", traceID, 0)
	defer tr.end(root)

	id := tr.begin("zx", traceID, root)
	zxOut := core.DepthOptimize(c)
	tr.end(id)
	acc.zxGatesIn += c.Len()
	acc.zxGatesOut += zxOut.Len()

	id = tr.begin("partition", traceID, root)
	blocks := partition.Partition(zxOut, partition.Options{MaxQubits: partitionQubits, MaxGates: partitionGates})
	tr.end(id)
	acc.blocks += len(blocks)

	lowered, err := replaySynth(tr, traceID, root, c.NumQubits, blocks, cache, acc)
	if err != nil {
		return out, err
	}
	// The zx replay matches the pipeline's stage 1 when it yields the
	// same shape and the same partition; only then can the synthesized
	// gate counts be compared.
	out.zxMatched = zxOut.Len() == res.Stats.GatesAfterZX && zxOut.Depth() == res.Stats.DepthAfterZX &&
		len(blocks) == res.Stats.Blocks
	out.cnots = lowered.CountKind(gate.CX)
	out.vugs = lowered.CountKind(gate.U3)

	id = tr.begin("regroup", traceID, root)
	pulsed := synth.Regroup(res.Lowered, regroupQubits)
	tr.end(id)
	acc.regroupOps += len(pulsed.Ops)

	sched, searches, err := replayPulses(tr, traceID, root, pulsed, res, mode, lib, acc)
	if err != nil {
		return out, err
	}
	out.searches = searches
	out.pulses = len(sched.Items)
	out.latency = sched.Latency
	out.esp = sched.TotalFidelity()
	return out, nil
}

// replaySynth runs stage 3 on the replayed partition: every eligible
// block (non-bridge, at most 3 qubits, more than one gate) goes through
// the synthesis cache; a block whose search misses the threshold keeps
// its own gates in the U3/CX basis, as the pipeline's fallback does.
func replaySynth(tr *tracer, traceID, root, n int, blocks []partition.Block, cache *synth.Cache, acc *layerCounts) (*circuit.Circuit, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sid := tr.begin("synth", traceID, root)
	lowered := circuit.New(n)
	for i := range blocks {
		b := &blocks[i]
		local := b.Local
		if !b.Bridge && len(b.Qubits) <= 3 && b.Local.Len() > 1 {
			u := b.Unitary()
			acc.synthLookups++
			circ, ok, _, err := cache.GetOrCompute(nil, u, func() (*circuit.Circuit, bool, error) {
				qid := tr.begin("synth.qsearch", traceID, sid)
				r := synth.QSearch(u, synth.Options{})
				tr.end(qid)
				ok := r.Circuit != nil && r.Distance < synthThreshold
				acc.synthCalls++
				acc.synthNodes += r.Nodes
				if ok {
					acc.synthOK++
				}
				acc.synthDistMax = math.Max(acc.synthDistMax, r.Distance)
				return r.Circuit, ok, r.Err
			})
			if err != nil {
				tr.end(sid)
				return nil, fmt.Errorf("synth replay: %w", err)
			}
			if ok {
				local = circ
			} else {
				local = optimize.MergeSingleQubitRuns(optimize.DecomposeToBasis(b.Local))
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
	tr.end(sid)
	runtime.ReadMemStats(&m1)
	acc.synthAlloc += m1.TotalAlloc - m0.TotalAlloc
	return lowered, nil
}

// replayPulses runs stage 5 on the regrouped circuit: in full mode a
// duration search (the benchmark's own Runner around qoc.GRAPE) per
// distinct unitary missing from the library fills it, then every op is
// looked up and scheduled. In estimate mode the calibrated estimator is private
// to core, so each library miss takes the pipeline's own pulse for that
// op; lookups and scheduling are still replayed.
func replayPulses(tr *tracer, traceID, root int, pulsed *circuit.Circuit, res *core.Result, mode core.QOCMode, lib *pulse.Library, acc *layerCounts) (*pulse.Schedule, int, error) {
	n := pulsed.NumQubits
	dev := hardware.LinearChain(n)
	searches := 0
	if mode == core.QOCFull {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		qid := tr.begin("qoc", traceID, root)
		seen := map[string]bool{}
		for _, op := range pulsed.Ops {
			u := op.G.Matrix()
			fp := linalg.Fingerprint(u)
			if seen[fp] || lib.Peek(u) {
				continue
			}
			seen[fp] = true
			p, err := searchPulse(tr, traceID, qid, dev, op, u, acc)
			if err != nil {
				tr.end(qid)
				return nil, 0, err
			}
			searches++
			lib.Store(u, p)
		}
		tr.end(qid)
		runtime.ReadMemStats(&m1)
		acc.qocAlloc += m1.TotalAlloc - m0.TotalAlloc
	}
	if len(res.Schedule.Items) != len(pulsed.Ops) {
		return nil, 0, fmt.Errorf("pulse replay: %d pipeline pulses for %d regrouped ops", len(res.Schedule.Items), len(pulsed.Ops))
	}
	sched := pulse.NewSchedule(n)
	for i, op := range pulsed.Ops {
		u := op.G.Matrix()
		lid := tr.begin("pulse.lookup", traceID, root)
		p, hit := lib.Lookup(u)
		tr.end(lid)
		acc.lookups++
		if hit {
			acc.hits++
		} else {
			if mode == core.QOCFull {
				return nil, 0, fmt.Errorf("pulse replay: op %d missed a prefilled library", i)
			}
			pp := res.Schedule.Items[i].Pulse
			p = &pulse.Pulse{Label: pp.Label, Duration: pp.Duration, Fidelity: pp.Fidelity}
			lib.Store(u, p)
		}
		sid := tr.begin("pulse.schedule", traceID, root)
		sched.Add(&pulse.Pulse{Label: p.Label, Qubits: op.Qubits, Duration: p.Duration, Fidelity: p.Fidelity})
		tr.end(sid)
	}
	acc.libEntries += lib.Len()
	return sched, searches, nil
}

// searchPulse is one duration search with the pipeline's slot range,
// step, iteration limit and target, every probe a span.
func searchPulse(tr *tracer, traceID, parent int, dev *hardware.Device, op circuit.Op, u *linalg.Matrix, acc *layerCounts) (*pulse.Pulse, error) {
	k := len(op.Qubits)
	model := dev.BlockModel(k)
	step := 2
	if k == 2 {
		step = slotStep2Q
	} else if k > 2 {
		step = 2 * slotStep2Q
	}
	cfg := qoc.GRAPEConfig{MaxIter: grapeIters, Target: fidelityTarget, Seed: qocSeed}
	sid := tr.begin("qoc.search", traceID, parent)
	acc.qocSearches++
	r := qoc.SearchDuration(nil, 2, dev.MaxSlots(k), step, fidelityTarget, func(slots int) qoc.Result {
		pid := tr.begin("qoc.probe", traceID, sid)
		pr := qoc.GRAPE(model, u, slots, cfg)
		tr.end(pid)
		acc.qocProbes++
		acc.qocIters += pr.Iterations
		if pr.Iterations >= grapeIters && pr.Fidelity < fidelityTarget {
			acc.qocMaxIterProbes++
			acc.qocWastedIter += pr.Iterations
		}
		return pr
	})
	tr.end(sid)
	if r.Err != nil {
		return nil, fmt.Errorf("qoc replay: %w", r.Err)
	}
	if acc.qocSearches == 1 || r.Fidelity < acc.pulseFidMin {
		acc.pulseFidMin = r.Fidelity
	}
	return &pulse.Pulse{
		Label:    fmt.Sprintf("%s[%dq]", op.G.Kind, k),
		Duration: r.Duration,
		Fidelity: r.Fidelity,
		Slots:    r.Slots,
		Amps:     r.Amps,
	}, nil
}

// crossCheck compares a replay with the pipeline's own counts for the
// same input: duration searches and pulses always; schedule latency
// unless the compile warm-started GRAPE from a stored neighbour, which
// the replay's cold searches do not repeat; CNOTs and VUGs where the zx
// replay matched the pipeline's stage 1.
func crossCheck(name string, rep replayed, res *core.Result) []string {
	m := res.MetricMap()
	var bad []string
	check := func(what string, got, want float64) {
		//epoc:lint-ignore floatcmp the replay repeats the pipeline's arithmetic, so agreement is exact
		if got != want {
			bad = append(bad, fmt.Sprintf("%s: replay %s = %v, pipeline %v", name, what, got, want))
		}
	}
	check("qoc.searches", float64(rep.searches), m["qoc_runs"])
	check("pulses", float64(rep.pulses), m["pulses"])
	if res.Stats.WarmStarts == 0 {
		check("schedule_ns", rep.latency, m["latency_ns"])
	}
	if rep.zxMatched {
		check("cnots", float64(rep.cnots), m["cnots"])
		check("vugs", float64(rep.vugs), m["vugs"])
	}
	return bad
}

// span is one timed region of a traced run. Spans of one compile or
// request share a trace ID; Parent is 0 for a root.
type span struct {
	Name    string  `json:"name"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Trace   int     `json:"trace"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps a run's spans in memory. Replays are sequential, so it
// needs no lock; the serve workload's clients each own one.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e3 }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, traceID, parent int) int {
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Trace: traceID, StartUS: t.now()})
	return len(t.spans)
}

// end closes the span with the given ID.
func (t *tracer) end(id int) { t.spans[id-1].EndUS = t.now() }

// record adds a finished span that began at start and lasted ms.
func (t *tracer) record(name string, traceID, parent int, start time.Time, ms float64) {
	us := float64(start.Sub(t.t0).Nanoseconds()) / 1e3
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Trace: traceID, StartUS: us, EndUS: us + ms*1e3})
}

// durations returns the lengths in ms of every span with the name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, (s.EndUS-s.StartUS)/1e3)
		}
	}
	return out
}

// total is the summed length in ms of every span with the name.
func (t *tracer) total(name string) float64 {
	sum := 0.0
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}
