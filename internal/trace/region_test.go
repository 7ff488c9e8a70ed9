package trace_test

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"testing"

	"epoc/internal/faultclock"
	"epoc/internal/logx"
	"epoc/internal/obs"
	"epoc/internal/trace"
)

// TestNilRegionNoAllocs extends the nil-sink contract to the region
// handle: opening, annotating and ending a root, a stage and a child
// region with every sink nil allocates nothing.
func TestNilRegionNoAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(1000, func() {
		root := trace.Open(nil, nil, nil, "compile").SetStr("strategy", "epoc")
		st := root.Stage("stage/synth")
		block := st.Child("stage/synth/block").SetInt("class", 3)
		block.SetStr("cache", "miss").SetFloat("distance", 1e-9).SetBool("ok", true)
		block.Recorder().Add("synth/nodes", 1)
		block.End()
		st.End()
		root.End()
	})
	if allocs != 0 {
		t.Fatalf("nil-sink region allocated %.1f times per op, want 0", allocs)
	}
}

// TestRegionSinksAgree pins that one handle feeds every sink: each
// opened region is one obs timer observation and one trace span of the
// same name, attributes land on the span, and only stage regions log.
func TestRegionSinksAgree(t *testing.T) {
	tr := trace.New(faultclock.NewFake())
	rec := obs.New()
	var buf bytes.Buffer
	log := logx.New(&buf, slog.LevelInfo)

	root := trace.Open(tr, rec, log, "compile").SetStr("strategy", "epoc")
	st := root.Stage("stage/qoc")
	for i := 0; i < 3; i++ {
		p := st.Child("qoc/pulse").SetInt("i", int64(i))
		probe := p.Child("qoc/duration_probe")
		probe.End()
		p.End()
	}
	if st.Recorder() != rec {
		t.Fatal("child region lost the recorder")
	}
	st.End()
	root.End()

	spans := spanCounts(decodeEvents(t, tr.ChromeTrace()))
	snap := rec.Snapshot()
	for name, want := range map[string]int64{"compile": 1, "stage/qoc": 1, "qoc/pulse": 3, "qoc/duration_probe": 3} {
		if got := spans[name]; got != want {
			t.Errorf("%s: %d spans, want %d", name, got, want)
		}
		if got := snap.Timers[name].Count; got != want {
			t.Errorf("%s: %d timer observations, want %d", name, got, want)
		}
	}

	var msgs []string
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var m map[string]any
		if err := dec.Decode(&m); err != nil {
			t.Fatal(err)
		}
		if m["stage"] != "stage/qoc" {
			t.Fatalf("record not tied to the stage region: %v", m)
		}
		msgs = append(msgs, m["msg"].(string))
	}
	if len(msgs) != 2 || msgs[0] != "stage start" || msgs[1] != "stage done" {
		t.Fatalf("log records = %v, want [stage start, stage done]", msgs)
	}
}
