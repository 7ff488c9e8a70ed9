package obs_test

import (
	"fmt"

	"epoc/internal/obs"
)

// ExampleRecorder shows the counter and distribution primitives the
// pipeline stages use.
func ExampleRecorder() {
	r := obs.New()
	r.Add("synth/nodes", 3)
	r.Add("synth/nodes", 2)
	r.Observe("qoc/grape/iterations", 80)
	r.Observe("qoc/grape/iterations", 120)

	snap := r.Snapshot()
	fmt.Println("nodes:", snap.Counters["synth/nodes"])
	d := snap.Dists["qoc/grape/iterations"]
	fmt.Printf("grape iters: n=%d total=%.0f mean=%.0f\n", d.Count, d.Sum, d.Mean())
	// Output:
	// nodes: 5
	// grape iters: n=2 total=200 mean=100
}

// ExampleRecorder_span times a pipeline stage. A nil *Recorder makes
// every call a no-op, so instrumented code needs no conditionals.
func ExampleRecorder_span() {
	r := obs.New()
	sp := r.Span("stage/partition")
	// ... stage work ...
	sp.End()
	fmt.Println("spans recorded:", r.Snapshot().Timers["stage/partition"].Count)

	var disabled *obs.Recorder // Options.Obs left unset
	sp = disabled.Span("stage/partition")
	sp.End()
	fmt.Println("disabled snapshot is nil:", disabled.Snapshot() == nil)
	// Output:
	// spans recorded: 1
	// disabled snapshot is nil: true
}

// ExampleRecorder_trace shows the bounded trace primitive, the event
// buffer: events past the bound are counted, not kept.
func ExampleRecorder_trace() {
	r := obs.New()
	r.Eventf("qoc/grape", "slots=%d iters=%d stop=%s", 48, 5, "target")
	for i := 0; i < obs.DefaultMaxEvents; i++ {
		r.Eventf("qoc/grape", "slots=%d iters=%d stop=%s", 24, 200, "max_iter")
	}

	snap := r.Snapshot()
	fmt.Println(snap.Events[0].Stage, "|", snap.Events[0].Msg)
	fmt.Println("dropped:", snap.EventsDropped)
	// Output:
	// qoc/grape | slots=48 iters=5 stop=target
	// dropped: 1
}
