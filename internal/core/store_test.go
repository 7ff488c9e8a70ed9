package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"epoc/internal/circuit"
	"epoc/internal/gate"
	"epoc/internal/hardware"
	"epoc/internal/linalg"
	"epoc/internal/obs"
)

// storeTestOpts returns full-GRAPE options small enough for a test
// compile but otherwise default, pinned so every compile in a test
// shares one store namespace.
func storeTestOpts(n int) Options {
	return Options{
		Strategy:   EPOC,
		Device:     hardware.LinearChain(n),
		Mode:       QOCFull,
		GRAPEIters: 80,
	}
}

// compileOnStore compiles c on a store opened under dir for this
// compile alone and closed after it: a fresh process in miniature.
func compileOnStore(t testing.TB, dir string, c *circuit.Circuit, opts Options) (*Result, error) {
	t.Helper()
	st, err := OpenStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Store = st
	res, err := Compile(c, opts)
	if cerr := st.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	return res, err
}

// rotCircuit is the warm-start fixture: small rotations around a CX.
// Compiling it at a slightly different angle produces block unitaries
// near — but not within exact-match tolerance of — a previous run's,
// which is exactly the case the warm-start path exists for.
func rotCircuit(theta float64) *circuit.Circuit {
	c := circuit.New(2)
	c.Append(gate.New(gate.RX, theta), 0)
	c.Append(gate.New(gate.RY, theta/2), 1)
	c.Append(gate.New(gate.CX), 0, 1)
	c.Append(gate.New(gate.RX, theta/3), 1)
	return c
}

func scheduleBytes(t *testing.T, r *Result) string {
	t.Helper()
	b, err := json.Marshal(r.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestStoreRestartServesWarm is the tentpole contract end-to-end: a
// second compile of the same circuit from the same store directory —
// a fresh process in miniature — runs zero GRAPE optimizations and
// reproduces the cold result byte for byte.
func TestStoreRestartServesWarm(t *testing.T) {
	dir := t.TempDir()
	c := rotCircuit(0.5)

	cold, err := compileOnStore(t, dir, c, storeTestOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.QOCRuns == 0 {
		t.Fatal("cold compile ran no QOC — fixture too trivial to test warming")
	}

	rec := obs.New()
	opts := storeTestOpts(2)
	opts.Obs = rec
	warm, err := compileOnStore(t, dir, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.QOCRuns != 0 {
		t.Fatalf("warm compile ran %d QOC optimizations, want 0", warm.Stats.QOCRuns)
	}
	if warm.Latency != cold.Latency || warm.Fidelity != cold.Fidelity {
		t.Fatalf("warm result diverged: latency %v vs %v, fidelity %v vs %v",
			warm.Latency, cold.Latency, warm.Fidelity, cold.Fidelity)
	}
	if a, b := scheduleBytes(t, cold), scheduleBytes(t, warm); a != b {
		t.Fatal("warm schedule is not byte-identical to the cold schedule")
	}
	snap := rec.Snapshot()
	if snap.Counters["store/warm/pulses"] == 0 {
		t.Fatal("warm compile imported no pulses from the store")
	}
	if warm.QOCTime >= cold.QOCTime && cold.Stats.QOCRuns > 0 {
		// Not load-bearing for correctness, but the whole point: warm
		// stage-5 time should collapse to library lookups.
		t.Logf("note: warm QOC time %v not below cold %v", warm.QOCTime, cold.QOCTime)
	}
}

// TestStoreWarmStartDeterminismAndEquivalence compiles a perturbed
// circuit against a store populated from a nearby one, so pulses go
// through the GRAPE warm-start path (near neighbours, not exact hits).
// The output must be byte-identical at 1 and 8 workers, and the
// lowered circuit must stay equivalent to the input under the same
// harness the cold pipeline is held to.
func TestStoreWarmStartDeterminismAndEquivalence(t *testing.T) {
	seed := t.TempDir()
	if _, err := compileOnStore(t, seed, rotCircuit(0.5), storeTestOpts(2)); err != nil {
		t.Fatal(err)
	}

	perturbed := rotCircuit(0.52)
	want := perturbed.Unitary()
	wantRho := densityOf(perturbed)
	var schedules []string
	for _, workers := range []int{1, 8} {
		// Each worker count compiles against its own copy of the seed
		// store: the first compile harvests the perturbed pulses, and a
		// shared directory would hand the second compile exact hits
		// instead of warm starts.
		dir := t.TempDir()
		copyStoreDir(t, seed, dir)
		opts := storeTestOpts(2)
		opts.Workers = workers
		res, err := compileOnStore(t, dir, perturbed, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.WarmStarts == 0 {
			t.Fatalf("workers=%d: no GRAPE run was warm-started", workers)
		}
		if res.Lowered == nil {
			t.Fatalf("workers=%d: no lowered circuit", workers)
		}
		if d := linalg.PhaseDistance(want, res.Lowered.Unitary()); d > equivTol {
			t.Fatalf("workers=%d: lowered circuit diverged: phase distance %g", workers, d)
		}
		if d := linalg.FrobeniusDistance(wantRho, densityOf(res.Lowered)); d > equivTol {
			t.Fatalf("workers=%d: density evolution diverged: %g", workers, d)
		}
		schedules = append(schedules, scheduleBytes(t, res))
	}
	if schedules[0] != schedules[1] {
		t.Fatal("warm-start compile is not byte-identical across worker counts")
	}
}

// copyStoreDir clones a store root (namespace dirs and their record
// files) into dst.
func copyStoreDir(t *testing.T, src, dst string) {
	t.Helper()
	nss, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ns := range nss {
		if !ns.IsDir() {
			continue
		}
		nsDst := filepath.Join(dst, ns.Name())
		if err := os.MkdirAll(nsDst, 0o755); err != nil {
			t.Fatal(err)
		}
		files, err := os.ReadDir(filepath.Join(src, ns.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			data, err := os.ReadFile(filepath.Join(src, ns.Name(), f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(nsDst, f.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestStoreNamespaceMismatchDropsStore: a shared store opened under
// different knobs must not warm this compile — using its pulses would
// be cache poisoning — but the compile itself proceeds cold.
func TestStoreNamespaceMismatchDropsStore(t *testing.T) {
	dir := t.TempDir()
	other := storeTestOpts(2)
	other.GRAPEIters = 33 // a different namespace
	st, err := OpenStore(dir, other)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()

	rec := obs.New()
	opts := storeTestOpts(2)
	opts.Store = st
	opts.Obs = rec
	res, err := Compile(rotCircuit(0.5), opts)
	if err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	if snap.Counters["store/namespace_mismatch"] != 1 {
		t.Fatalf("mismatch counter = %d, want 1", snap.Counters["store/namespace_mismatch"])
	}
	if snap.Counters["store/harvest/pulses"] != 0 {
		t.Fatal("compile harvested into a mismatched store")
	}
	if p, s := st.Len(); p != 0 || s != 0 {
		t.Fatalf("mismatched store gained records: %d pulses, %d synths", p, s)
	}
	if res.Stats.QOCRuns == 0 {
		t.Fatal("compile should have run cold")
	}
}

// TestStoreCorruptionDoesNotPoisonCompile damages a store on disk the
// way crashes and bit rot do — a flipped bit, a truncated record, a
// stray temp file from a writer that died before rename — and
// recompiles from it. The compile must succeed and reproduce the
// undamaged result exactly: damaged records are skipped and recomputed,
// never served.
func TestStoreCorruptionDoesNotPoisonCompile(t *testing.T) {
	dir := t.TempDir()
	c := rotCircuit(0.5)
	cold, err := compileOnStore(t, dir, c, storeTestOpts(2))
	if err != nil {
		t.Fatal(err)
	}

	ns := StoreNamespace(storeTestOpts(2))
	nsDir := filepath.Join(dir, ns)
	entries, err := os.ReadDir(nsDir)
	if err != nil {
		t.Fatal(err)
	}
	var recs []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".rec") {
			recs = append(recs, e.Name())
		}
	}
	if len(recs) == 0 {
		t.Fatal("cold compile persisted no records")
	}
	// Flip one payload bit in the first record.
	path := filepath.Join(nsDir, recs[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Truncate the second, if there is one.
	if len(recs) > 1 {
		p2 := filepath.Join(nsDir, recs[1])
		d2, err := os.ReadFile(p2)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p2, d2[:len(d2)/3], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A stray temp file from a crashed writer.
	if err := os.WriteFile(filepath.Join(nsDir, ".tmp-p-crashed"), []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}

	res, err := compileOnStore(t, dir, c, storeTestOpts(2))
	if err != nil {
		t.Fatalf("compile from corrupted store failed: %v", err)
	}
	if res.Latency != cold.Latency || res.Fidelity != cold.Fidelity {
		t.Fatalf("corrupted store changed the result: latency %v vs %v, fidelity %v vs %v",
			res.Latency, cold.Latency, res.Fidelity, cold.Fidelity)
	}
	if a, b := scheduleBytes(t, cold), scheduleBytes(t, res); a != b {
		t.Fatal("schedule diverged after store corruption")
	}
	// The damaged records were recomputed; a reopened store must be
	// whole again (content addressing heals the flipped record under a
	// fresh write of the same name).
	st, err := OpenStore(dir, storeTestOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	if cnt := st.Counters(); cnt.Corrupt != 0 {
		t.Fatalf("store still corrupt after healing compile: %+v", cnt)
	}
}

// TestStoreConcurrentCompiles hammers one store directory from
// concurrent compiles (run under -race in CI): distinct circuits, a
// shared Options.Store, and per-compile harvest+flush must neither
// race nor corrupt the directory.
func TestStoreConcurrentCompiles(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, storeTestOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	angles := []float64{0.5, 0.9, 1.3, 0.5, 0.9, 1.3}
	errc := make(chan error, len(angles))
	for _, theta := range angles {
		go func(theta float64) {
			opts := storeTestOpts(2)
			opts.Store = st
			_, err := Compile(rotCircuit(theta), opts)
			errc <- err
		}(theta)
	}
	for range angles {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenStore(dir, storeTestOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re.Close() }()
	if cnt := re.Counters(); cnt.Corrupt != 0 {
		t.Fatalf("concurrent compiles corrupted the store: %+v", cnt)
	}
	if p, _ := re.Len(); p == 0 {
		t.Fatal("concurrent compiles persisted nothing")
	}
}

// TestStoreNamespaceCoversDeviceKnobs pins the namespace contract:
// same physics, different qubit count → same namespace (pulses are
// per-block); different physics → different namespace.
func TestStoreNamespaceCoversDeviceKnobs(t *testing.T) {
	base := storeTestOpts(2)
	wide := storeTestOpts(7)
	if StoreNamespace(base) != StoreNamespace(wide) {
		t.Fatal("qubit count must not split the namespace")
	}
	slow := storeTestOpts(2)
	dev := *hardware.LinearChain(2)
	dev.Dt = dev.Dt * 2
	slow.Device = &dev
	if StoreNamespace(base) == StoreNamespace(slow) {
		t.Fatal("device Dt must split the namespace")
	}
	est := storeTestOpts(2)
	est.Mode = QOCEstimate
	if StoreNamespace(base) == StoreNamespace(est) {
		t.Fatal("QOC mode must split the namespace")
	}
	if !strings.HasPrefix(StoreNamespace(base), "v1-") {
		t.Fatalf("namespace %q missing codec version", StoreNamespace(base))
	}
}

// TestStoreNamespacePinned pins the namespace of the default
// configuration across commits, not just within one build: a store
// written by an earlier release must stay warm. Change these values
// only together with a deliberate namespace break (DESIGN.md §12).
func TestStoreNamespacePinned(t *testing.T) {
	full := Options{Device: hardware.LinearChain(4)}
	if got, want := StoreNamespace(full), "v1-5092a4d7e09185b3"; got != want {
		t.Errorf("full-mode namespace = %s, want %s", got, want)
	}
	est := full
	est.Mode = QOCEstimate
	if got, want := StoreNamespace(est), "v1-cb313e6cf044f880"; got != want {
		t.Errorf("estimate-mode namespace = %s, want %s", got, want)
	}
}
