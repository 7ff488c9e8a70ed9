package store

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"epoc/internal/circuit"
	"epoc/internal/gate"
	"epoc/internal/linalg"
	"epoc/internal/pulse"
	"epoc/internal/synth"
)

// testPulse builds a distinct (unitary, pulse) pair per index: RX
// rotations at distinct angles so no two entries match up to phase.
func testPulse(i int) (*linalg.Matrix, *pulse.Pulse) {
	theta := 0.1 + 0.2*float64(i)
	u := gate.New(gate.RX, theta).Matrix()
	return u, &pulse.Pulse{
		Label:    fmt.Sprintf("rx-%d", i),
		Duration: 10 + float64(i),
		Fidelity: 0.999,
		Slots:    3,
		Amps:     [][]float64{{0.1, 0}, {0.2 + theta, 0}, {0.1, 0}},
	}
}

func cxCircuit() *circuit.Circuit {
	c := circuit.New(2)
	c.Append(gate.New(gate.CX), 0, 1)
	return c
}

func TestPulseRecordRoundTrip(t *testing.T) {
	u, p := testPulse(1)
	name, data, err := EncodePulseRecord(u, p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(name, "p-") || !strings.HasSuffix(name, ".rec") {
		t.Fatalf("pulse record name %q", name)
	}
	rec, err := DecodeRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != KindPulse {
		t.Fatalf("kind %q", rec.Kind)
	}
	if d := linalg.FrobeniusDistance(u, rec.U); d != 0 {
		t.Fatalf("unitary did not round-trip exactly: distance %g", d)
	}
	if rec.Pulse.Label != p.Label || rec.Pulse.Duration != p.Duration ||
		rec.Pulse.Fidelity != p.Fidelity || rec.Pulse.Slots != p.Slots {
		t.Fatalf("pulse fields did not round-trip: %+v vs %+v", rec.Pulse, p)
	}
	for i := range p.Amps {
		for j := range p.Amps[i] {
			if rec.Pulse.Amps[i][j] != p.Amps[i][j] {
				t.Fatalf("amp [%d][%d] did not round-trip", i, j)
			}
		}
	}
	// Content addressing: identical content frames to identical name+bytes.
	name2, data2, err := EncodePulseRecord(u, p)
	if err != nil || name2 != name || string(data2) != string(data) {
		t.Fatalf("encoding is not deterministic: %v %q vs %q", err, name2, name)
	}
}

func TestSynthRecordRoundTrip(t *testing.T) {
	u := gate.New(gate.CX).Matrix()
	circ := cxCircuit()
	name, data, err := EncodeSynthRecord(u, circ, true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(name, "s-") {
		t.Fatalf("synth record name %q", name)
	}
	rec, err := DecodeRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != KindSynth || !rec.Ok || rec.Circ == nil {
		t.Fatalf("record: %+v", rec)
	}
	if rec.Circ.NumQubits != 2 || rec.Circ.Len() != 1 || rec.Circ.Ops[0].G.Kind != gate.CX {
		t.Fatalf("circuit did not round-trip: %+v", rec.Circ)
	}

	// A failed synthesis with no circuit is also persistable: the record
	// keeps the negative result so a restart skips the doomed QSearch.
	_, data, err = EncodeSynthRecord(u, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	rec, err = DecodeRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Circ != nil || rec.Ok {
		t.Fatalf("nil-circuit record: %+v", rec)
	}
}

func TestSynthRecordRejectsMatrixGates(t *testing.T) {
	u := gate.New(gate.CX).Matrix()
	c := circuit.New(2)
	c.Append(gate.NewUnitary(u), 0, 1)
	if _, _, err := EncodeSynthRecord(u, c, true); err == nil {
		t.Fatal("matrix-carrying gate should not encode")
	}
}

func TestStoreRoundTripThroughDisk(t *testing.T) {
	root := t.TempDir()
	s1, err := Open(root, "ns")
	if err != nil {
		t.Fatal(err)
	}
	lib := pulse.NewLibrary(true)
	for i := 0; i < 4; i++ {
		u, p := testPulse(i)
		lib.Store(u, p)
	}
	cache := synth.NewCache()
	ucx := gate.New(gate.CX).Matrix()
	if _, _, _, err := cache.GetOrCompute(nil, ucx, func() (*circuit.Circuit, bool, error) {
		return cxCircuit(), true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if n := s1.HarvestLibrary(lib); n != 4 {
		t.Fatalf("harvested %d pulses, want 4", n)
	}
	if n := s1.HarvestSynthCache(cache); n != 1 {
		t.Fatalf("harvested %d synths, want 1", n)
	}
	// Idempotent: a second harvest of the same caches stages nothing.
	if n := s1.HarvestLibrary(lib) + s1.HarvestSynthCache(cache); n != 0 {
		t.Fatalf("re-harvest staged %d records", n)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(root, "ns")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s2.Close() }()
	if p, s := s2.Len(); p != 4 || s != 1 {
		t.Fatalf("reopened store holds %d pulses, %d synths", p, s)
	}
	lib2 := pulse.NewLibrary(true)
	if n := s2.WarmLibrary(lib2); n != 4 {
		t.Fatalf("warmed %d pulses, want 4", n)
	}
	// Warming is idempotent too: everything is already present.
	if n := s2.WarmLibrary(lib2); n != 0 {
		t.Fatalf("re-warm added %d", n)
	}
	for i := 0; i < 4; i++ {
		u, p := testPulse(i)
		got, ok := lib2.Lookup(u)
		if !ok {
			t.Fatalf("pulse %d missing after warm", i)
		}
		if got.Label != p.Label || got.Duration != p.Duration {
			t.Fatalf("pulse %d: got %+v want %+v", i, got, p)
		}
	}
	cache2 := synth.NewCache()
	if n := s2.WarmSynthCache(cache2); n != 1 {
		t.Fatalf("warmed %d synths, want 1", n)
	}
	circ, ok, st, err := cache2.GetOrCompute(nil, ucx, func() (*circuit.Circuit, bool, error) {
		t.Fatal("warm cache should not recompute")
		return nil, false, nil
	})
	if err != nil || !ok || st != synth.CacheHit || circ.Len() != 1 {
		t.Fatalf("warm cache lookup: ok=%v st=%v err=%v", ok, st, err)
	}
	// Warming never counts as cache traffic beyond this one hit.
	if c := s2.Counters(); c.PulseLoaded != 4 || c.SynthLoaded != 1 || c.Corrupt != 0 {
		t.Fatalf("counters: %+v", c)
	}
}

// TestHarvestSkipsEntriesAlreadySeen: a harvest remembers the entries
// it staged or found on disk and does not encode them again. Each
// harvested pulse is then made unencodable in place — something a
// library never does to its entries — so any re-encode would show up
// as a Skipped count; an entry added later is still staged.
func TestHarvestSkipsEntriesAlreadySeen(t *testing.T) {
	root := t.TempDir()
	spoil := func(lib *pulse.Library) {
		for _, e := range lib.Export() {
			e.P.Label = strings.Repeat("x", maxLabelLen+1)
		}
	}
	s1, err := Open(root, "ns")
	if err != nil {
		t.Fatal(err)
	}
	lib := pulse.NewLibrary(true)
	for i := 0; i < 3; i++ {
		lib.Store(testPulse(i))
	}
	if n := s1.HarvestLibrary(lib); n != 3 {
		t.Fatalf("first harvest staged %d, want 3", n)
	}
	if err := s1.Flush(); err != nil {
		t.Fatal(err)
	}
	spoil(lib)
	if n := s1.HarvestLibrary(lib); n != 0 || s1.Counters().Skipped != 0 {
		t.Fatalf("second harvest staged %d and skipped %d: it re-encoded seen entries", n, s1.Counters().Skipped)
	}
	lib.Store(testPulse(3))
	if n := s1.HarvestLibrary(lib); n != 1 || s1.Counters().Skipped != 0 {
		t.Fatalf("harvest after adding one entry staged %d (skipped %d), want 1 (0)", n, s1.Counters().Skipped)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Entries warmed from disk are found there by the first harvest and
	// skipped, unencoded, by every later one.
	s2, err := Open(root, "ns")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s2.Close() }()
	if p, _ := s2.Len(); p != 4 {
		t.Fatalf("reopened store holds %d pulses, want 4", p)
	}
	lib2 := pulse.NewLibrary(true)
	s2.WarmLibrary(lib2)
	if n := s2.HarvestLibrary(lib2); n != 0 {
		t.Fatalf("harvest of a warmed library staged %d", n)
	}
	spoil(lib2)
	if n := s2.HarvestLibrary(lib2); n != 0 || s2.Counters().Skipped != 0 {
		t.Fatalf("repeat harvest of a warmed library staged %d and skipped %d", n, s2.Counters().Skipped)
	}
}

// corruptionCase writes one damaged file into a store directory and
// says how it should be accounted at Open.
type corruptionCase struct {
	name string
	file string
	data func(valid []byte) []byte
	// loaded says whether the file should still decode (only the stray
	// .tmp case: ignored entirely, not counted corrupt).
	ignored bool
}

func TestOpenSkipsCorruptRecords(t *testing.T) {
	u, p := testPulse(0)
	_, valid, err := EncodePulseRecord(u, p)
	if err != nil {
		t.Fatal(err)
	}
	cases := []corruptionCase{
		{name: "truncated", file: "p-" + strings.Repeat("a", 32) + ".rec",
			data: func(v []byte) []byte { return v[:len(v)/2] }},
		{name: "bitflip", file: "p-" + strings.Repeat("b", 32) + ".rec",
			data: func(v []byte) []byte {
				c := append([]byte(nil), v...)
				c[len(c)-3] ^= 0x40 // flip a payload bit: checksum must catch it
				return c
			}},
		{name: "wrong-version", file: "p-" + strings.Repeat("c", 32) + ".rec",
			data: func(v []byte) []byte {
				return []byte(strings.Replace(string(v), Magic+" 1 ", Magic+" 99 ", 1))
			}},
		{name: "empty", file: "p-" + strings.Repeat("d", 32) + ".rec",
			data: func([]byte) []byte { return nil }},
		{name: "junk", file: "p-" + strings.Repeat("e", 32) + ".rec",
			data: func([]byte) []byte { return []byte("not a record at all") }},
		{name: "stray-tmp", file: ".tmp-p-crashed123", ignored: true,
			data: func(v []byte) []byte { return v[:10] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			dir := filepath.Join(root, "ns")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			// One valid record beside the damaged file: the good one must
			// load, the bad one must be skipped, Open must not fail.
			name, data, err := EncodePulseRecord(u, p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, tc.file), tc.data(valid), 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(root, "ns")
			if err != nil {
				t.Fatalf("Open failed on a corrupt store: %v", err)
			}
			defer func() { _ = s.Close() }()
			pn, _ := s.Len()
			if pn != 1 {
				t.Fatalf("loaded %d pulses, want 1 (the valid record)", pn)
			}
			wantCorrupt := int64(1)
			if tc.ignored {
				wantCorrupt = 0
			}
			if c := s.Counters(); c.Corrupt != wantCorrupt {
				t.Fatalf("corrupt count %d, want %d", c.Corrupt, wantCorrupt)
			}
			// No poisoning: the library warmed from this store holds only
			// the valid pulse, with its exact bytes.
			lib := pulse.NewLibrary(true)
			if n := s.WarmLibrary(lib); n != 1 {
				t.Fatalf("warmed %d, want 1", n)
			}
			got, ok := lib.Lookup(u)
			if !ok || got.Label != p.Label || got.Duration != p.Duration {
				t.Fatalf("valid pulse poisoned or missing: ok=%v got=%+v", ok, got)
			}
		})
	}
}

func TestDecodeRecordRejects(t *testing.T) {
	u, p := testPulse(0)
	_, valid, err := EncodePulseRecord(u, p)
	if err != nil {
		t.Fatal(err)
	}
	header := string(valid[:strings.IndexByte(string(valid), '\n')+1])
	payload := string(valid[len(header):])
	reframe := func(payload string) []byte {
		_, data, err := frameForTest(KindPulse, []byte(payload))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cases := map[string][]byte{
		"empty":            nil,
		"no-newline":       []byte(strings.Repeat("x", 200)),
		"bad-magic":        []byte(strings.Replace(header, Magic, "NOTASTORE", 1) + payload),
		"bad-kind":         []byte(strings.Replace(header, " pulse ", " goose ", 1) + payload),
		"short-header":     []byte(Magic + " 1 pulse\n" + payload),
		"length-lies":      []byte(strings.Replace(header, fmt.Sprintf(" %d ", len(payload)), fmt.Sprintf(" %d ", len(payload)+1), 1) + payload),
		"huge-amp":         reframe(strings.Replace(payload, `"amps":[[`, `"amps":[[1e999,`, 1)),
		"unknown-field":    reframe(strings.Replace(payload, `"label"`, `"labell"`, 1)),
		"trailing-garbage": reframe(payload + "{}"),
		"bad-fidelity":     reframe(strings.Replace(payload, `"fidelity":0.999`, `"fidelity":2.5`, 1)),
	}
	for name, data := range cases {
		if _, err := DecodeRecord(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// The unmodified record still decodes (the mutations above, not the
	// framing helper, are what the cases reject).
	if _, err := DecodeRecord(valid); err != nil {
		t.Fatalf("control: %v", err)
	}
}

// frameForTest re-frames a (possibly damaged) payload with a correct
// checksum, so payload-level validation is what rejects it.
func frameForTest(kind Kind, payload []byte) (string, []byte, error) {
	return frame(kind, payload)
}

func TestDecodeSynthRejectsBadOps(t *testing.T) {
	u := gate.New(gate.CX).Matrix()
	_, valid, err := EncodeSynthRecord(u, cxCircuit(), true)
	if err != nil {
		t.Fatal(err)
	}
	header := string(valid[:strings.IndexByte(string(valid), '\n')+1])
	payload := string(valid[len(header):])
	mutations := map[string]func(string) string{
		"unknown-gate": func(p string) string { return strings.Replace(p, `"kind":"cx"`, `"kind":"zz9"`, 1) },
		"bad-arity":    func(p string) string { return strings.Replace(p, `"qubits":[0,1]`, `"qubits":[0]`, 1) },
		"dup-qubits":   func(p string) string { return strings.Replace(p, `"qubits":[0,1]`, `"qubits":[1,1]`, 1) },
		"out-of-range": func(p string) string { return strings.Replace(p, `"qubits":[0,1]`, `"qubits":[0,7]`, 1) },
		"bad-width":    func(p string) string { return strings.Replace(p, `"qubits":2,`, `"qubits":99,`, 1) },
	}
	for name, mut := range mutations {
		mp := mut(payload)
		if mp == payload {
			t.Fatalf("%s: mutation did not apply", name)
		}
		_, data, err := frame(KindSynth, []byte(mp))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeRecord(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestConcurrentStoreHammer drives goroutines that store, harvest,
// flush, reopen and warm through one shared directory. Run with -race;
// correctness check is that a final reopen sees every record exactly
// once and every pulse survives byte-identical.
func TestConcurrentStoreHammer(t *testing.T) {
	root := t.TempDir()
	const writers = 8
	const perWriter = 6
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := Open(root, "ns")
			if err != nil {
				t.Error(err)
				return
			}
			lib := pulse.NewLibrary(true)
			for i := 0; i < perWriter; i++ {
				// Overlapping index ranges: half of each writer's pulses
				// collide with a neighbour's — content addressing must
				// dedupe them on disk.
				u, p := testPulse(w*perWriter/2 + i)
				lib.Store(u, p)
				s.HarvestLibrary(lib)
				if err := s.Flush(); err != nil {
					t.Error(err)
					return
				}
			}
			// Concurrent readers: reopen mid-hammer and warm a fresh
			// library; whatever is visible must decode cleanly.
			r, err := Open(root, "ns")
			if err != nil {
				t.Error(err)
				return
			}
			if c := r.Counters(); c.Corrupt != 0 {
				t.Errorf("reader saw %d corrupt records", c.Corrupt)
			}
			r.WarmLibrary(pulse.NewLibrary(true))
			_ = r.Close()
			_ = s.Close()
		}(w)
	}
	wg.Wait()

	final, err := Open(root, "ns")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = final.Close() }()
	if c := final.Counters(); c.Corrupt != 0 {
		t.Fatalf("final open: %d corrupt records", c.Corrupt)
	}
	// Distinct pulse indices written: 0 .. (writers-1)*perWriter/2 + perWriter - 1.
	want := (writers-1)*perWriter/2 + perWriter
	pn, _ := final.Len()
	if pn != want {
		t.Fatalf("final store holds %d pulses, want %d", pn, want)
	}
	lib := pulse.NewLibrary(true)
	if n := final.WarmLibrary(lib); n != want {
		t.Fatalf("warmed %d, want %d", n, want)
	}
	for i := 0; i < want; i++ {
		u, p := testPulse(i)
		got, ok := lib.Lookup(u)
		if !ok || got.Label != p.Label {
			t.Fatalf("pulse %d lost or corrupted (ok=%v)", i, ok)
		}
	}
}

func TestClosedStoreSemantics(t *testing.T) {
	s, err := Open(t.TempDir(), "ns")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("Close is not idempotent:", err)
	}
	if err := s.Flush(); err == nil {
		t.Fatal("Flush after Close should error")
	}
	lib := pulse.NewLibrary(true)
	u, p := testPulse(0)
	lib.Store(u, p)
	if n := s.HarvestLibrary(lib); n != 0 {
		t.Fatalf("harvest after Close staged %d", n)
	}
}

func TestNamespace(t *testing.T) {
	a := Namespace(map[string]string{"mode": "full", "seed": "1"})
	b := Namespace(map[string]string{"seed": "1", "mode": "full"})
	if a != b {
		t.Fatalf("namespace depends on map order: %q vs %q", a, b)
	}
	c := Namespace(map[string]string{"mode": "full", "seed": "2"})
	if a == c {
		t.Fatal("different configs share a namespace")
	}
	if !strings.HasPrefix(a, fmt.Sprintf("v%d-", CodecVersion)) {
		t.Fatalf("namespace %q does not carry the codec version", a)
	}
	if strings.ContainsAny(a, "/\\ ") {
		t.Fatalf("namespace %q is not a clean path segment", a)
	}
}

func TestEncodeBounds(t *testing.T) {
	u, p := testPulse(0)
	long := *p
	long.Label = strings.Repeat("x", maxLabelLen+1)
	if _, _, err := EncodePulseRecord(u, &long); err == nil {
		t.Fatal("over-long label should not encode")
	}
	if _, _, err := EncodePulseRecord(nil, p); err == nil {
		t.Fatal("nil unitary should not encode")
	}
	if _, _, err := EncodePulseRecord(u, nil); err == nil {
		t.Fatal("nil pulse should not encode")
	}
	inf := *p
	inf.Amps = [][]float64{{math.Inf(1)}}
	_, data, err := EncodePulseRecord(u, &inf)
	if err == nil {
		// Encoding may succeed only if decode then rejects it; JSON
		// cannot represent Inf, so in practice Marshal fails first.
		if _, derr := DecodeRecord(data); derr == nil {
			t.Fatal("non-finite amplitude survived a round trip")
		}
	}
}
