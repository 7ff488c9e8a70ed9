package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"epoc/internal/core"
	"epoc/internal/linalg"
	"epoc/internal/linalg/kernel"
	"epoc/internal/pulse"
	"epoc/internal/synth"
)

// traceBatch is the traced run of a batch workload. It compiles every
// circuit once untraced, then replays each compile layer by layer twice:
// the first replay gives the per-layer metrics and is cross-checked
// against the pipeline's own counts, the second must reproduce the
// first's deterministic counters exactly.
func traceBatch(cfg config, spec batchSpec, items []item) (*run, error) {
	r := newRun()
	results := make([]*core.Result, len(items))
	t0 := time.Now()
	for i, it := range items {
		res, err := compileOnce(context.Background(), spec, it)
		if err != nil || res.Degraded {
			r.ops.record(false)
			r.fail("%s: compile error %v, degraded %v", it.name, err, res != nil && res.Degraded)
			continue
		}
		results[i] = res
	}
	untraced := time.Since(t0)

	var counts [2]layerCounts
	var reps [2][]replayed
	var tracers [2]*tracer
	var traced time.Duration
	for pass := range tracers {
		tr := newTracer()
		tracers[pass] = tr
		p0 := time.Now()
		for i, it := range items {
			if results[i] == nil {
				continue
			}
			rep, err := replay(tr, i+1, it.circ, results[i], spec.mode, &counts[pass], synth.NewCache(), pulse.NewLibrary(true))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", it.name, err)
			}
			reps[pass] = append(reps[pass], rep)
			if pass > 0 {
				continue
			}
			ok := checkOutput(r, it, results[i], spec.mode)
			for _, msg := range crossCheck(it.name, rep, results[i]) {
				r.fail("replay cross-check: %s", msg)
				ok = false
			}
			r.ops.record(ok)
		}
		if pass == 0 {
			traced = time.Since(p0)
		}
	}
	checkRepeat(r, counts, reps)
	layerMetrics(r, tracers[0], counts[0])
	zeroServeMetrics(r)
	kernelMetrics(r)
	r.set("trace.overhead_ratio", "ratio", float64(untraced+traced)/float64(untraced))
	logShares(cfg.workload, tracers[0])
	writeSpans(cfg, tracers[0])
	return r, nil
}

// checkRepeat requires two replays of the same inputs to agree exactly
// on the counters a claim may rest on. A difference is a defect of the
// program or the benchmark, not noise.
func checkRepeat(r *run, counts [2]layerCounts, reps [2][]replayed) {
	a, b := counts[0], counts[1]
	if a.synthNodes != b.synthNodes || a.qocIters != b.qocIters || a.qocProbes != b.qocProbes {
		r.fail("counters drifted between replays: synth.nodes %d/%d qoc.grape_iters %d/%d qoc.probes %d/%d",
			a.synthNodes, b.synthNodes, a.qocIters, b.qocIters, a.qocProbes, b.qocProbes)
	}
	if len(reps[0]) != len(reps[1]) {
		r.fail("replays covered %d and %d circuits", len(reps[0]), len(reps[1]))
		return
	}
	for i := range reps[0] {
		//epoc:lint-ignore floatcmp determinism is bitwise: any difference is drift
		if reps[0][i].latency != reps[1][i].latency || reps[0][i].esp != reps[1][i].esp {
			r.fail("replay %d: schedule_ns %v/%v esp_fidelity %v/%v drifted", i,
				reps[0][i].latency, reps[1][i].latency, reps[0][i].esp, reps[1][i].esp)
		}
	}
}

// ratio is a/b, or 0 when b is 0 (the layer did no work).
func ratio(a, b float64) float64 {
	//epoc:lint-ignore floatcmp b is a count or a sum of durations; only an exact 0 means no work
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics turns a traced replay into the per-layer metrics. A
// layer that did not run reads 0, as does a percentile with fewer than
// ten samples beyond it.
func layerMetrics(r *run, tr *tracer, c layerCounts) {
	const mb = 1 << 20
	r.set("zx.ms", "ms", tr.total("zx"))
	r.set("zx.gates_out_ratio", "ratio", ratio(float64(c.zxGatesOut), float64(c.zxGatesIn)))
	r.set("partition.ms", "ms", tr.total("partition"))
	r.set("partition.blocks", "count", float64(c.blocks))

	qs := tr.durations("synth.qsearch")
	r.set("synth.ms", "ms", tr.total("synth"))
	r.set("synth.qsearch_ms.p50", "ms", median(qs))
	r.set("synth.qsearch_ms.p90", "ms", reportedPercentile(qs, 90))
	r.set("synth.calls", "count", float64(c.synthCalls))
	r.set("synth.nodes", "count", float64(c.synthNodes))
	r.set("synth.dedup_ratio", "ratio", ratio(float64(c.synthLookups-c.synthCalls), float64(c.synthLookups)))
	r.set("synth.ok_ratio", "ratio", ratio(float64(c.synthOK), float64(c.synthCalls)))
	r.set("synth.alloc_mb", "MB", float64(c.synthAlloc)/mb)
	r.set("synth.equiv_dist.max", "ratio", c.synthDistMax)

	r.set("regroup.ms", "ms", tr.total("regroup"))
	r.set("regroup.ops_out", "count", float64(c.regroupOps))

	probes := tr.durations("qoc.probe")
	probeS := tr.total("qoc.probe") / 1e3
	r.set("qoc.ms", "ms", tr.total("qoc"))
	r.set("qoc.searches", "count", float64(c.qocSearches))
	r.set("qoc.probes", "count", float64(c.qocProbes))
	r.set("qoc.probe_ms.p50", "ms", median(probes))
	r.set("qoc.probe_ms.p90", "ms", reportedPercentile(probes, 90))
	r.set("qoc.grape_iters", "count", float64(c.qocIters))
	r.set("qoc.maxiter_probe_ratio", "ratio", ratio(float64(c.qocMaxIterProbes), float64(c.qocProbes)))
	r.set("qoc.wasted_iter_ratio", "ratio", ratio(float64(c.qocWastedIter), float64(c.qocIters)))
	r.set("qoc.iters_per_s", "1/s", ratio(float64(c.qocIters), probeS))
	r.set("qoc.alloc_mb", "MB", float64(c.qocAlloc)/mb)
	r.set("qoc.pulse_fid.min", "ratio", c.pulseFidMin)

	r.set("pulse.lookup_us.p50", "us", median(tr.durations("pulse.lookup"))*1e3)
	r.set("pulse.library_entries", "count", float64(c.libEntries))
	r.set("pulse.hit_ratio", "ratio", ratio(float64(c.hits), float64(c.lookups)))
	r.set("pulse.schedule_us", "us", tr.total("pulse.schedule")*1e3)
}

// zeroServeMetrics reports the store and serve layers as idle on the
// batch workloads, which never reach them.
func zeroServeMetrics(r *run) {
	for _, m := range [][2]string{
		{"store.open_ms", "ms"}, {"store.records", "count"}, {"store.warm_ms", "ms"},
		{"store.harvest_ms", "ms"}, {"store.flush_ms", "ms"}, {"store.records_written", "count"},
		{"serve.repeat_ms.p90", "ms"}, {"serve.queue_ms.p50", "ms"}, {"serve.compile_ms.p50", "ms"}, {"serve.overhead_ms.p50", "ms"},
		{"serve.response_kb", "KB"}, {"serve.rejected_ratio", "ratio"},
	} {
		r.set(m[0], m[1], 0)
	}
}

// kernelMetrics times the GRAPE inner kernels at GRAPE's shapes: dense
// products of 2-, 3- and 4-qubit propagators and the slice propagator
// exp(-i·H·s) of 2- and 3-qubit Hamiltonians. Each is the median
// per-call time over several batches.
func kernelMetrics(r *run) {
	ws := kernel.NewWorkspace()
	rng := rand.New(rand.NewSource(1))
	for _, d := range []int{4, 8, 16} {
		a, b, dst := make([]complex128, d*d), make([]complex128, d*d), make([]complex128, d*d)
		for i := range a {
			a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		r.set(fmt.Sprintf("kernel.matmul_ns.d%d", d), "ns", nsPerCall(func() { kernel.MatMul(ws, dst, a, b, d, d, d) }))
	}
	for _, d := range []int{4, 8} {
		h, dst := linalg.RandomHermitian(d, rng), linalg.NewMatrix(d, d)
		r.set(fmt.Sprintf("linalg.expih_ns.d%d", d), "ns", nsPerCall(func() { linalg.ExpIHermitianInto(ws, dst, h, 0.37) }))
	}
}

// nsPerCall is the median over batches of ~10 ms of fn's per-call time.
func nsPerCall(fn func()) float64 {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if time.Since(t0) >= 10*time.Millisecond {
			break
		}
		n *= 2
	}
	var per []float64
	for b := 0; b < 7; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(per)
}

// logShares prints each layer's share of the replayed time, the
// attribution a workload was chosen for.
func logShares(workload string, tr *tracer) {
	layers := []string{"zx", "partition", "synth", "regroup", "qoc", "pulse.lookup", "pulse.schedule"}
	total := 0.0
	for _, l := range layers {
		total += tr.total(l)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s replay split:", workload)
	for _, l := range layers {
		fmt.Fprintf(os.Stderr, " %s %.1f%%", l, 100*ratio(tr.total(l), total))
	}
	fmt.Fprintln(os.Stderr)
}

// writeSpans writes the run's spans, sorted by start, to
// .bench_build/spans-<workload>-<seed>.json for inspection. Failing to
// write them does not fail the run.
func writeSpans(cfg config, tr *tracer) {
	spans := append([]span(nil), tr.spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartUS < spans[j].StartUS })
	data, err := json.Marshal(spans)
	if err == nil {
		err = os.MkdirAll(".bench_build", 0o755)
	}
	if err == nil {
		err = os.WriteFile(filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed)), data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: spans not written:", err)
	}
}
