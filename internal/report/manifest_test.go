package report

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"epoc/internal/faultclock"
	"epoc/internal/obs"
	"epoc/internal/trace"
)

func sampleManifest() *Manifest {
	// Populate every snapshot section: empty sections are omitted from
	// the JSON (and decode as nil), so a round-trippable snapshot is
	// one with data everywhere — which a real compile always has.
	r := obs.New()
	r.Add("compiles", 1)
	r.Observe("synth/distance", 1e-9)
	r.Sample("qoc/grape/fidelity", 0.5)
	r.Eventf("qoc/grape", "slots=%d", 8)
	sp := r.Span("stage/synth")
	sp.End()
	snap := r.Snapshot()
	// Normalize event timestamps for deep-equality through JSON:
	// marshalling drops the monotonic reading and re-parsing yields the
	// UTC location, so store them that way from the start.
	for i := range snap.Events {
		snap.Events[i].Time = snap.Events[i].Time.UTC().Round(0)
	}

	clock := faultclock.NewFake()
	tr := trace.New(clock)
	root := tr.Start("compile")
	clock.Advance(3 * time.Millisecond)
	root.End()

	m := &Manifest{
		Version:  ManifestVersion,
		Circuit:  "bv_5",
		Strategy: "epoc",
		Config: map[string]string{
			"workers": "4",
			"mode":    "estimate",
		},
		Metrics: map[string]float64{
			"latency_ns":      1234.5,
			"fidelity":        0.9991,
			"pulses":          17,
			"compile_time_ns": 4.2e8,
		},
		Degraded:       true,
		DegradeReasons: []string{"qoc"},
		Obs:            snap,
		Trace:          tr.Summary(),
	}
	m.Fingerprint()
	return m
}

// TestManifestRoundTrip is the satellite round-trip test: encode →
// decode → deep-equal, and a second encode must reproduce the bytes.
func TestManifestRoundTrip(t *testing.T) {
	m := sampleManifest()
	raw, err := EncodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, back) {
		t.Fatalf("manifest did not round-trip:\nbefore: %+v\nafter:  %+v", m, back)
	}
	raw2, err := EncodeManifest(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Fatalf("re-encoding changed bytes:\n%s\nvs\n%s", raw, raw2)
	}
}

func TestManifestVersionGate(t *testing.T) {
	m := sampleManifest()
	m.Version = ManifestVersion + 1
	raw, err := EncodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeManifest(raw); err == nil {
		t.Fatal("decoded a manifest from the future without error")
	}
	if _, err := DecodeManifest([]byte("{not json")); err == nil {
		t.Fatal("decoded malformed JSON without error")
	}
}

// TestManifestFingerprint pins that the fingerprint covers strategy
// and config and ignores map insertion order.
func TestManifestFingerprint(t *testing.T) {
	a := &Manifest{Strategy: "epoc", Config: map[string]string{"x": "1", "y": "2"}}
	b := &Manifest{Strategy: "epoc", Config: map[string]string{"y": "2", "x": "1"}}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprint depends on map order")
	}
	c := &Manifest{Strategy: "accqoc", Config: map[string]string{"x": "1", "y": "2"}}
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("fingerprint ignores strategy")
	}
	d := &Manifest{Strategy: "epoc", Config: map[string]string{"x": "1", "y": "3"}}
	if a.Fingerprint() == d.Fingerprint() {
		t.Fatal("fingerprint ignores config values")
	}
}

func artifactPair() (*BenchArtifact, *BenchArtifact) {
	mk := func() *BenchArtifact {
		return &BenchArtifact{
			Version:           ManifestVersion,
			Suite:             "small",
			Strategy:          "epoc",
			ConfigFingerprint: "abc",
			Circuits: []CircuitResult{
				{Name: "bv_5", Metrics: map[string]float64{
					"latency_ns": 1000, "fidelity": 0.999, "pulses": 12, "compile_time_ns": 5e8,
				}},
				{Name: "qft_4", Metrics: map[string]float64{
					"latency_ns": 2000, "fidelity": 0.998, "pulses": 20, "compile_time_ns": 9e8,
				}},
			},
		}
	}
	return mk(), mk()
}

// TestArtifactEncodeSorted pins that artifact bytes are independent of
// the order the circuits finished in.
func TestArtifactEncodeSorted(t *testing.T) {
	a, b := artifactPair()
	b.Circuits[0], b.Circuits[1] = b.Circuits[1], b.Circuits[0]
	ab, err := EncodeArtifact(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := EncodeArtifact(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Fatalf("artifact bytes depend on run order:\n%s\nvs\n%s", ab, bb)
	}
	back, err := DecodeArtifact(ab)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, back) {
		t.Fatalf("artifact did not round-trip: %+v vs %+v", a, back)
	}
}
