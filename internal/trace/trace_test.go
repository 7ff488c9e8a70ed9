package trace_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"epoc/internal/faultclock"
	"epoc/internal/trace"
)

// TestNilTracerNoAllocs pins the disabled path's cost: starting,
// annotating and ending spans against a nil tracer allocates nothing
// (the internal/obs contract, extended to trace).
func TestNilTracerNoAllocs(t *testing.T) {
	var tr *trace.Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Start("compile")
		child := sp.Child("stage/synth")
		block := child.Child("stage/synth/block")
		block.SetInt("class", 3).SetStr("cache", "miss").SetFloat("distance", 1e-9).SetBool("ok", true)
		block.End()
		child.End()
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("nil tracer allocated %.1f times per op, want 0", allocs)
	}
}

// TestNilSafety covers every method on nil receivers, including
// export.
func TestNilSafety(t *testing.T) {
	var tr *trace.Tracer
	out := tr.ChromeTrace()
	var decoded map[string]interface{}
	if err := json.Unmarshal(out, &decoded); err != nil {
		t.Fatalf("nil ChromeTrace is not valid JSON: %v\n%s", err, out)
	}
}

// TestHierarchyExport records a small deterministic tree under a fake
// clock and checks the exported spans' counts and durations.
func TestHierarchyExport(t *testing.T) {
	clock := faultclock.NewFake()
	tr := trace.New(clock)
	root := tr.Start("compile")
	stage := root.Child("stage/synth")
	for i := 0; i < 3; i++ {
		b := stage.Child("stage/synth/block").SetInt("class", int64(i))
		clock.Advance(10 * time.Millisecond)
		b.End()
	}
	stage.End()
	root.End()

	events := decodeEvents(t, tr.ChromeTrace())
	if len(events) != 5 {
		t.Fatalf("exported spans = %d, want 5", len(events))
	}
	if got := spanCounts(events)["stage/synth/block"]; got != 3 {
		t.Fatalf("block spans = %d, want 3", got)
	}
	for _, e := range events {
		want := 10e3 // µs
		if e.Name != "stage/synth/block" {
			want = 30e3
		}
		if e.Dur != want {
			t.Fatalf("%s: dur %gµs, want %gµs", e.Name, e.Dur, want)
		}
	}
}

// TestChromeTraceDeterministic pins that two runs recording the same
// logical spans from different goroutine interleavings export
// byte-identical traces: siblings are distinguished by attributes,
// not by registration order.
func TestChromeTraceDeterministic(t *testing.T) {
	build := func(order []int) []byte {
		tr := trace.New(faultclock.NewFake())
		root := tr.Start("compile")
		stage := root.Child("stage/synth")
		var wg sync.WaitGroup
		for _, i := range order {
			wg.Add(1)
			go func(class int) {
				defer wg.Done()
				sp := stage.Child("stage/synth/block").SetInt("class", int64(class))
				sp.End()
			}(i)
			wg.Wait() // serialize each goroutine to force the given registration order
		}
		stage.End()
		root.End()
		return tr.ChromeTrace()
	}
	a := build([]int{0, 1, 2, 3})
	b := build([]int{3, 1, 0, 2})
	if !bytes.Equal(a, b) {
		t.Fatalf("export depends on registration order:\n%s\nvs\n%s", a, b)
	}
}

// TestChromeTraceLanes checks the interval-coloring track layout:
// overlapping siblings land on distinct tracks (one per concurrent
// worker), properly nested children share their parent's track, and
// zero-width spans all collapse onto track 0.
func TestChromeTraceLanes(t *testing.T) {
	clock := faultclock.NewFake()
	tr := trace.New(clock)
	root := tr.Start("compile")
	// Two overlapping "worker" spans plus one nested child.
	a := root.Child("block").SetInt("class", 0)
	b := root.Child("block").SetInt("class", 1)
	clock.Advance(time.Millisecond)
	inner := a.Child("probe")
	clock.Advance(time.Millisecond)
	inner.End()
	a.End()
	b.End()
	clock.Advance(time.Millisecond)
	root.End()

	events := decodeEvents(t, tr.ChromeTrace())
	tids := map[string]float64{}
	for _, e := range events {
		key := e.Name
		if cls, ok := e.Args["class"]; ok {
			key = fmt.Sprintf("%s/%v", e.Name, cls)
		}
		tids[key] = e.Tid
	}
	if tids["block/0"] == tids["block/1"] {
		t.Fatalf("overlapping siblings share track %v: %v", tids["block/0"], tids)
	}
	if tids["probe"] != tids["block/0"] {
		t.Fatalf("nested child left its parent's track: %v", tids)
	}
	if tids["compile"] != 0 {
		t.Fatalf("root not on track 0: %v", tids)
	}
}

// TestZeroWidthSingleLane: under a never-advanced fake clock every
// span is zero-width, nothing overlaps, and the whole trace collapses
// onto track 0 — the property that makes worker-count-independent
// golden traces possible.
func TestZeroWidthSingleLane(t *testing.T) {
	tr := trace.New(faultclock.NewFake())
	root := tr.Start("compile")
	stage := root.Child("stage/synth")
	for i := 0; i < 8; i++ {
		stage.Child("stage/synth/block").SetInt("class", int64(i)).End()
	}
	stage.End()
	root.End()
	for _, e := range decodeEvents(t, tr.ChromeTrace()) {
		if e.Tid != 0 {
			t.Fatalf("zero-width span on track %v: %+v", e.Tid, e)
		}
	}
}

// TestRaceHammer starts, annotates and ends spans from many goroutines
// against one shared tracer and parent; run under -race this pins the
// tracer's goroutine safety (the stage-3 pool contract).
func TestRaceHammer(t *testing.T) {
	tr := trace.New(nil)
	root := tr.Start("compile")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := root.Child("stage/synth/block").SetInt("worker", int64(w)).SetInt("i", int64(i))
				sp.Child("probe").SetInt("slots", int64(i%7)).End()
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	root.End()
	events := decodeEvents(t, tr.ChromeTrace())
	if got := len(events); got != 1+8*200*2 {
		t.Fatalf("span count = %d, want %d", got, 1+8*200*2)
	}
	if got := spanCounts(events)["stage/synth/block"]; got != 8*200 {
		t.Fatalf("block span count = %d, want %d", got, 8*200)
	}
}

// TestDoubleEndNoop pins that a second End (the defer-compose pattern)
// does not move the recorded end time.
func TestDoubleEndNoop(t *testing.T) {
	clock := faultclock.NewFake()
	tr := trace.New(clock)
	sp := tr.Start("x")
	clock.Advance(time.Millisecond)
	sp.End()
	clock.Advance(time.Hour)
	sp.End()
	if got := decodeEvents(t, tr.ChromeTrace())[0].Dur; got != 1e3 {
		t.Fatalf("double End moved the end time: %gµs", got)
	}
}

// chromeEvent is the subset of the trace-event schema the tests read.
type chromeEvent struct {
	Name string                 `json:"name"`
	Ph   string                 `json:"ph"`
	Tid  float64                `json:"tid"`
	Ts   float64                `json:"ts"`
	Dur  float64                `json:"dur"`
	Args map[string]interface{} `json:"args"`
}

func decodeEvents(t *testing.T, raw []byte) []chromeEvent {
	t.Helper()
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, raw)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("export contains no events")
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			t.Fatalf("unexpected phase %q in %+v", e.Ph, e)
		}
	}
	return doc.TraceEvents
}

// spanCounts tallies exported spans by name.
func spanCounts(events []chromeEvent) map[string]int64 {
	n := map[string]int64{}
	for _, e := range events {
		n[e.Name]++
	}
	return n
}
