package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"epoc/internal/benchcirc"
	"epoc/internal/circuit"
	"epoc/internal/core"
	"epoc/internal/hardware"
	"epoc/internal/pulse"
	"epoc/internal/qasm"
	"epoc/internal/serve"
	"epoc/internal/store"
	"epoc/internal/synth"
)

// repeatSet is what serve_warm's store holds before traffic starts:
// small corpus circuits whose repeats exercise the read path.
var repeatSet = []string{"bb84", "hs4", "cc", "ghz", "dj", "simon", "bv"}

const (
	// novelCount is the length of the seeded novel-circuit stream, a
	// little more than client 0 gets through in a 20 s run.
	novelCount = 40
	// novelEvery puts one novel request among this many of client 0's.
	novelEvery = 10
	// serveSetupReps is how many times an untraced run builds the
	// store and restarts the server; setup_s is the median.
	serveSetupReps = 3
)

// liveServer is an in-process serve.Server on a loopback listener.
type liveServer struct {
	srv  *serve.Server
	http *http.Server
	url  string
	done chan error
}

func startServer(dir string) (*liveServer, error) {
	s, err := serve.New(serve.Config{Workers: 2, StorePath: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = s.Shutdown(context.Background())
		return nil, err
	}
	ls := &liveServer{srv: s, http: &http.Server{Handler: s.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { ls.done <- ls.http.Serve(ln) }()
	return ls, nil
}

// stop closes the listener, drains the compile workers and closes the
// store, then waits for the serving goroutine to end.
func (ls *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := ls.http.Shutdown(ctx)
	if serr := ls.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-ls.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// request is one circuit the clients send: a repeat-set name or the
// QASM of a novel circuit.
type request struct {
	name  string
	novel bool
	qasm  string
	circ  *circuit.Circuit
}

// reply is what a client saw for one request.
type reply struct {
	req                 *request
	start               time.Time
	ms, queueMS, compMS float64
	bytes               int
	status              int
	done, degraded      bool
	latency, fidelity   float64
}

// send posts one synchronous compile and decodes the envelope.
func send(client *http.Client, url string, req *request) (reply, error) {
	body := serve.CompileRequest{Circuit: req.name}
	if req.novel {
		body = serve.CompileRequest{QASM: req.qasm}
	}
	data, err := json.Marshal(body)
	if err != nil {
		return reply{}, err
	}
	t0 := time.Now()
	resp, err := client.Post(url+"/v1/compile", "application/json", bytes.NewReader(data))
	if err != nil {
		return reply{}, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rp := reply{req: req, start: t0, ms: float64(time.Since(t0).Nanoseconds()) / 1e6, bytes: len(raw), status: resp.StatusCode}
	if err != nil {
		return rp, err
	}
	var env serve.CompileResponse
	if err := json.Unmarshal(raw, &env); err != nil {
		return rp, fmt.Errorf("decode response: %w", err)
	}
	rp.queueMS, rp.compMS, rp.degraded = env.QueueMS, env.CompileMS, env.Degraded
	rp.done = env.Status == "done" && env.Manifest != nil
	if rp.done {
		rp.latency, rp.fidelity = env.Manifest.Metrics["latency_ns"], env.Manifest.Metrics["fidelity"]
	}
	return rp, nil
}

// healthy reports whether a reply is a completed, undegraded compile.
func (rp reply) healthy() bool {
	return rp.status == http.StatusOK && rp.done && !rp.degraded && rp.latency > 0
}

// serveInputs builds the repeat set and the seeded novel stream of
// 3-qubit, 2-layer brickwork circuits with random angles. Every novel
// circuit has the same shape (four GRAPE searches when cold), so the
// seed changes which unitaries are optimized, not how many; Fig. 5's
// RandomCircuit draws at this size range from one pulse to eight, and
// the median novel latency followed the draw. Novel circuits go to the
// server as QASM;
// the circuit kept here is parsed back from that QASM, so it is exactly
// what the server compiled.
func serveInputs(seed int64) (repeats, novel []*request, err error) {
	for _, name := range repeatSet {
		c, err := benchcirc.Get(name)
		if err != nil {
			return nil, nil, err
		}
		repeats = append(repeats, &request{name: name, circ: c})
	}
	for i := 0; i < novelCount; i++ {
		src, err := qasm.Write(benchcirc.RandomLayered(3, 2, seed*1000+int64(i)))
		if err != nil {
			return nil, nil, err
		}
		prog, err := qasm.Parse(src)
		if err != nil {
			return nil, nil, err
		}
		novel = append(novel, &request{name: fmt.Sprintf("novel%d", i), novel: true, qasm: src, circ: prog.Circuit})
	}
	return repeats, novel, nil
}

// warmStore is serve_warm's set-up: compile the repeat set cold into a
// new store through a server, shut that server down, and start a new
// one on the same store, as a restarted daemon. It returns the new
// server and each repeat circuit's first reply.
//
// The set-up sends one request at a time. Two cold compiles running at
// once can both miss the shared library on one unitary and store two
// different pulses for it; after a restart the store may then serve the
// other pulse, and a repeat no longer returns the latency its first
// compile did (seen with two set-up clients: dj, simon and bv at 204 ns
// before the restart, 188 ns after).
func warmStore(client *http.Client, dir string, repeats []*request) (*liveServer, map[string]reply, error) {
	s1, err := startServer(dir)
	if err != nil {
		return nil, nil, err
	}
	first := map[string]reply{}
	var errs []error
	for _, rq := range repeats {
		rp, err := send(client, s1.url, rq)
		if err == nil && !rp.healthy() {
			err = fmt.Errorf("%s: status %d done %v degraded %v", rq.name, rp.status, rp.done, rp.degraded)
		}
		if err != nil {
			errs = append(errs, err)
		}
		first[rq.name] = rp
	}
	if err := s1.stop(); err != nil {
		errs = append(errs, err)
	}
	if len(errs) > 0 {
		return nil, nil, fmt.Errorf("store build: %w", errors.Join(errs...))
	}
	s2, err := startServer(dir)
	if err != nil {
		return nil, nil, err
	}
	return s2, first, nil
}

// traffic is what the two closed-loop clients saw.
type traffic struct {
	replies []reply
	cycles  []float64 // client 1's time per pass over the repeat set, s
	wall    time.Duration
}

// drive runs the closed loop for d: client 0 sends repeats with every
// novelEvery-th request taken from the novel stream, in order, until the
// stream ends; client 1 cycles through the repeat set. Each client
// sends its next request when the previous reply arrives.
func drive(client *http.Client, url string, repeats, novel []*request, d time.Duration) (traffic, error) {
	var out [2][]reply
	var cycles []float64
	var errs [2]error
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			k := 0
			c0 := time.Now()
			for i := 0; time.Since(start) < d; i++ {
				req := repeats[(i+3*c)%len(repeats)]
				if c == 0 && i%novelEvery == novelEvery-1 && k < len(novel) {
					req = novel[k]
					k++
				}
				rp, err := send(client, url, req)
				if err != nil {
					errs[c] = err
					return
				}
				out[c] = append(out[c], rp)
				if c == 1 && (i+1)%len(repeats) == 0 {
					cycles = append(cycles, time.Since(c0).Seconds())
					c0 = time.Now()
				}
			}
		}(c)
	}
	wg.Wait()
	t := traffic{replies: append(out[0], out[1]...), cycles: cycles, wall: time.Since(start)}
	return t, errors.Join(errs[0], errs[1])
}

// checkReplies counts every reply: a failure is an error status, an
// unfinished or degraded compile, or a repeat whose schedule latency or
// fidelity differs from the one recorded during set-up.
func checkReplies(r *run, replies []reply, first map[string]reply) {
	for _, rp := range replies {
		ok := rp.healthy()
		if !ok {
			r.fail("%s: status %d done %v degraded %v", rp.req.name, rp.status, rp.done, rp.degraded)
		} else if !rp.req.novel {
			want := first[rp.req.name]
			//epoc:lint-ignore floatcmp a repeat is served from the store, so it must return the recorded values exactly
			if rp.latency != want.latency || rp.fidelity != want.fidelity {
				ok = false
				r.fail("%s: repeat returned latency %v fidelity %v, set-up recorded %v %v",
					rp.req.name, rp.latency, rp.fidelity, want.latency, want.fidelity)
			}
		}
		r.ops.record(ok)
	}
}

func runServe(cfg config) (*run, error) {
	repeats, novel, err := serveInputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	gateNS := map[string]float64{}
	for _, rq := range repeats {
		if gateNS[rq.name], err = gateBasedLatency(rq.circ); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	client := &http.Client{Timeout: 2 * time.Minute}
	defer client.CloseIdleConnections()

	reps := serveSetupReps
	if cfg.trace {
		reps = 1
	}
	var srv *liveServer
	var dir string
	var first map[string]reply
	var setups []float64
	defer func() {
		if dir != "" {
			os.RemoveAll(dir)
		}
	}()
	for i := 0; i < reps; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
			os.RemoveAll(dir)
		}
		if dir, err = os.MkdirTemp(".bench_build", "store-"); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if srv, first, err = warmStore(client, dir, repeats); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if cfg.trace {
		return traceServe(cfg, client, srv, dir, repeats, novel, first)
	}

	// Unlike the batch workloads, serve_warm reports wall times as
	// measured: a request is mostly HTTP, JSON and system calls, and
	// scaling it by the speed reference left its spread across seeds
	// no narrower.
	tf, err := drive(client, srv.url, repeats, novel, cfg.seconds)
	if serr := srv.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	r := newRun()
	checkReplies(r, tf.replies, first)
	var all, novelMS []float64
	per := map[string][]float64{}
	for _, rp := range tf.replies {
		if rp.req.novel {
			novelMS = append(novelMS, rp.ms)
			continue
		}
		all = append(all, rp.ms)
		per[rp.req.name] = append(per[rp.req.name], rp.ms)
	}
	var medians, gains, fids []float64
	for _, rq := range repeats {
		medians = append(medians, median(per[rq.name]))
		gains = append(gains, gateNS[rq.name]/first[rq.name].latency)
		fids = append(fids, first[rq.name].fidelity)
	}
	r.set("setup_s", "s", median(setups))
	r.set("suite_s", "s", median(tf.cycles))
	r.set("compile_ms.geomean", "ms", geomean(medians))
	r.set("cold_ms.p50", "ms", median(novelMS))
	r.set("requests_per_s", "1/s", float64(len(tf.replies))/tf.wall.Seconds())
	r.set("ok_ratio", "ratio", r.ops.okRatio())
	r.set("latency_gain.geomean", "ratio", geomean(gains))
	r.set("esp_fidelity.geomean", "ratio", geomean(fids))
	fmt.Fprintf(os.Stderr, "perfbench: serve_warm seed %d: %d requests, %d novel; repeat p50 %.2f ms, p90 %.2f ms\n",
		cfg.seed, len(tf.replies), len(novelMS), median(all), reportedPercentile(all, 90))
	return r, nil
}

// serveOptions is the configuration a request without options gets
// from the server, and so the one its store namespace is derived from.
func serveOptions(n int) core.Options {
	return core.Options{Strategy: core.EPOC, Device: hardware.LinearChain(n), Mode: core.QOCFull, GRAPEIters: grapeIters, Seed: qocSeed}
}

// traceServe is serve_warm's traced run. The clients put a span around
// every request; serve.* metrics come from the repeat requests'
// envelopes. The store layer is measured on two more store.Open calls of
// the server's namespace, so the server's own pending set is untouched.
// For each circuit served, the benchmark warms a fresh library and
// synthesis cache from one of them, compiles as the server does, then
// harvests and flushes: the store work the server does around every
// compile. Repeats replay on a store opened after the traffic, holding
// every record the run wrote, as the server's late repeats see it.
// Novel circuits replay on a store opened before the traffic, so their
// records are new to it and the flush writes them. Each of those
// compiles is then replayed layer by layer from the warmed caches.
func traceServe(cfg config, client *http.Client, srv *liveServer, dir string, repeats, novel []*request, first map[string]reply) (*run, error) {
	r := newRun()
	tr := newTracer()
	before, err := core.OpenStore(dir, serveOptions(2))
	if err != nil {
		_ = srv.stop() // the open error is the one to report
		return nil, err
	}
	// Every harvest below is flushed and checked, so Close has nothing
	// left to write and its error adds nothing.
	defer func() { _ = before.Close() }()

	t0 := time.Now()
	tf, err := drive(client, srv.url, repeats, novel, cfg.seconds)
	if serr := srv.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	untraced := time.Since(t0)
	checkReplies(r, tf.replies, first)
	var repeatMS, queue, comp, over, kb []float64
	rejected := 0
	for i, rp := range tf.replies {
		// Client spans are recorded from each reply's own timing, so the
		// two clients share no tracer while they run.
		tr.record("serve.request", i+1, 0, rp.start, rp.ms)
		if rp.status == http.StatusTooManyRequests || rp.status == http.StatusServiceUnavailable {
			rejected++
		}
		if rp.req.novel {
			continue
		}
		repeatMS = append(repeatMS, rp.ms)
		queue = append(queue, rp.queueMS)
		comp = append(comp, rp.compMS)
		over = append(over, rp.ms-rp.queueMS-rp.compMS)
		kb = append(kb, float64(rp.bytes)/1024)
	}

	t1 := time.Now()
	id := tr.begin("store.open", 0, 0)
	after, err := core.OpenStore(dir, serveOptions(2))
	tr.end(id)
	if err != nil {
		return nil, err
	}
	defer func() { _ = after.Close() }() // as for before
	pn, sn := after.Len()

	served := append([]*request(nil), repeats...)
	seen := map[*request]bool{}
	for _, rp := range tf.replies {
		if rp.req.novel && !seen[rp.req] {
			seen[rp.req] = true
			served = append(served, rp.req)
		}
	}
	var acc layerCounts
	written := 0
	for i, rq := range served {
		st := after
		if rq.novel {
			st = before
		}
		n, err := storeReplay(r, tr, 1000+i, st, rq, &acc)
		if err != nil {
			return nil, err
		}
		written += n
	}
	traced := time.Since(t1)

	layerMetrics(r, tr, acc)
	r.set("store.open_ms", "ms", tr.total("store.open"))
	r.set("store.records", "count", float64(pn+sn))
	r.set("store.warm_ms", "ms", tr.total("store.warm"))
	r.set("store.harvest_ms", "ms", tr.total("store.harvest"))
	r.set("store.flush_ms", "ms", tr.total("store.flush"))
	r.set("store.records_written", "count", float64(written))
	r.set("serve.repeat_ms.p90", "ms", reportedPercentile(repeatMS, 90))
	r.set("serve.queue_ms.p50", "ms", median(queue))
	r.set("serve.compile_ms.p50", "ms", median(comp))
	r.set("serve.overhead_ms.p50", "ms", median(over))
	r.set("serve.response_kb", "KB", median(kb))
	r.set("serve.rejected_ratio", "ratio", ratio(float64(rejected), float64(len(tf.replies))))
	kernelMetrics(r)
	r.set("trace.overhead_ratio", "ratio", float64(untraced+traced)/float64(untraced))
	logShares(cfg.workload, tr)
	logRepeatSplit(tr, len(repeats), median(over), len(repeatMS))
	writeSpans(cfg, tr)
	return r, nil
}

// storeReplay does for one circuit what the server does around a
// compile, on the second store: warm, compile, harvest, flush. It then
// replays the compile's layers from the warmed caches and cross-checks
// the replay. It returns how many records the flush wrote.
func storeReplay(r *run, tr *tracer, traceID int, st *store.Store, rq *request, acc *layerCounts) (int, error) {
	lib, cache := pulse.NewLibrary(true), synth.NewCache()
	id := tr.begin("store.warm", traceID, 0)
	st.WarmLibrary(lib)
	st.WarmSynthCache(cache)
	tr.end(id)

	warm := true
	opts := serveOptions(rq.circ.NumQubits)
	opts.Library, opts.SynthCache, opts.WarmStart, opts.Workers = lib, cache, &warm, 1
	id = tr.begin("compile", traceID, 0)
	res, err := core.Compile(rq.circ, opts)
	tr.end(id)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", rq.name, err)
	}

	id = tr.begin("store.harvest", traceID, 0)
	n := st.HarvestLibrary(lib) + st.HarvestSynthCache(cache)
	tr.end(id)
	id = tr.begin("store.flush", traceID, 0)
	err = st.Flush()
	tr.end(id)
	if err != nil {
		return 0, fmt.Errorf("%s: flush: %w", rq.name, err)
	}

	// The replay starts from the caches as they were before the
	// compile, warmed again from the store.
	wlib, wcache := pulse.NewLibrary(true), synth.NewCache()
	st.WarmLibrary(wlib)
	st.WarmSynthCache(wcache)
	rep, err := replay(tr, traceID, rq.circ, res, core.QOCFull, acc, wcache, wlib)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", rq.name, err)
	}
	ok := !res.Degraded
	for _, msg := range crossCheck(rq.name, rep, res) {
		r.fail("replay cross-check: %s", msg)
		ok = false
	}
	r.ops.record(ok)
	return n, nil
}

// logRepeatSplit prints where a repeat request's time goes: the store
// work around its compile, the pipeline stages inside it, and the
// serving overhead outside it, summed over one pass of the repeat set.
// Repeats are the store-replay traces 1000 to 1000+n-1.
func logRepeatSplit(tr *tracer, n int, overheadMS float64, requests int) {
	sum := func(names ...string) float64 {
		total := 0.0
		for _, sp := range tr.spans {
			if sp.Trace < 1000 || sp.Trace >= 1000+n {
				continue
			}
			for _, name := range names {
				if sp.Name == name {
					total += (sp.EndUS - sp.StartUS) / 1e3
				}
			}
		}
		return total
	}
	store := sum("store.warm", "store.harvest", "store.flush")
	stages := sum("zx", "partition", "synth", "regroup", "qoc", "pulse.lookup", "pulse.schedule")
	serving := overheadMS * float64(n)
	all := store + stages + serving
	fmt.Fprintf(os.Stderr, "perfbench: serve_warm repeat split over the %d-circuit set: store %.1f%% stages %.1f%% serving %.1f%% (%d repeat requests)\n",
		n, 100*ratio(store, all), 100*ratio(stages, all), 100*ratio(serving, all), requests)
}
