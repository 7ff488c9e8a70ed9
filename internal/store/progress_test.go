package store

import (
	"runtime"
	"strings"
	"testing"

	"epoc/internal/gate"
	"epoc/internal/pulse"
	"epoc/internal/synth"
)

// seededStore writes n pulse records and one synth record under a
// fresh root and reopens it.
func seededStore(t *testing.T, n int) *Store {
	t.Helper()
	root := t.TempDir()
	s, err := Open(root, "ns")
	if err != nil {
		t.Fatal(err)
	}
	lib, cache := pulse.NewLibrary(true), synth.NewCache()
	for i := 0; i < n; i++ {
		lib.Store(testPulse(i))
	}
	cache.Import(gate.New(gate.CX).Matrix(), cxCircuit(), true)
	s.HarvestLibrary(lib)
	s.HarvestSynthCache(cache)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(root, "ns")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// TestWarmOncePerLibrary: a store warms each library and cache once. A
// repeat warm does not look at the loaded records at all, which shows
// here because the records are swapped for unrelated ones after the
// first warm: a re-import would add them. A library the store has not
// warmed still gets every record.
func TestWarmOncePerLibrary(t *testing.T) {
	s := seededStore(t, 4)
	lib, cache := pulse.NewLibrary(true), synth.NewCache()
	if n := s.WarmLibrary(lib); n != 4 {
		t.Fatalf("first warm imported %d pulses, want 4", n)
	}
	if n := s.WarmSynthCache(cache); n != 1 {
		t.Fatalf("first warm imported %d syntheses, want 1", n)
	}
	for i, r := range s.pulses {
		r.U, _ = testPulse(10 + i)
	}
	s.synths[0].U = gate.New(gate.CZ).Matrix()
	if n := s.WarmLibrary(lib); n != 0 || lib.Len() != 4 {
		t.Fatalf("re-warm imported %d pulses (library holds %d)", n, lib.Len())
	}
	if n := s.WarmSynthCache(cache); n != 0 || cache.Len() != 1 {
		t.Fatalf("re-warm imported %d syntheses (cache holds %d)", n, cache.Len())
	}
	if n := s.WarmLibrary(pulse.NewLibrary(true)); n != 4 {
		t.Fatalf("a second library warmed %d pulses, want 4", n)
	}
	if c := s.Counters(); c.WarmPulses != 8 || c.WarmSynth != 1 {
		t.Fatalf("counters: %+v", c)
	}
}

// TestWarmAfterUnharvestedEntries: a library that already holds
// entries this store never harvested keeps them harvestable through a
// warm; the imported records are then encoded once and found on disk.
func TestWarmAfterUnharvestedEntries(t *testing.T) {
	s := seededStore(t, 3)
	lib := pulse.NewLibrary(true)
	lib.Store(testPulse(9))
	if n := s.WarmLibrary(lib); n != 3 {
		t.Fatalf("warm imported %d, want 3", n)
	}
	if n := s.HarvestLibrary(lib); n != 1 {
		t.Fatalf("harvest staged %d, want the one unharvested entry", n)
	}
	if n := s.HarvestLibrary(lib); n != 0 {
		t.Fatalf("repeat harvest staged %d", n)
	}
}

// TestHarvestSkipsUnencodableOnce: an entry the codec cannot represent
// is counted Skipped by the harvest that first meets it and never
// encoded again; it stays in memory. A preferred pulse that replaces it
// is a new entry, and is staged.
func TestHarvestSkipsUnencodableOnce(t *testing.T) {
	s, err := Open(t.TempDir(), "ns")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	lib := pulse.NewLibrary(true)
	u, p := testPulse(0)
	bad := *p
	bad.Label = strings.Repeat("x", maxLabelLen+1)
	lib.Store(u, &bad)
	for i := 0; i < 3; i++ {
		if n := s.HarvestLibrary(lib); n != 0 || s.Counters().Skipped != 1 {
			t.Fatalf("harvest %d staged %d, Skipped %d; want 0, 1", i, n, s.Counters().Skipped)
		}
	}
	if !lib.Peek(u) {
		t.Fatal("the unencodable entry left the library")
	}
	better := *p
	better.Duration = bad.Duration - 1
	lib.Store(u, &better)
	if n := s.HarvestLibrary(lib); n != 1 || s.Counters().Skipped != 1 {
		t.Fatalf("harvest of the replacement staged %d, Skipped %d", n, s.Counters().Skipped)
	}
}

// TestTrackerSweepsDiscardedLibraries: a store that warms a fresh
// library per compile does not keep an entry for each one it has seen.
func TestTrackerSweepsDiscardedLibraries(t *testing.T) {
	s := seededStore(t, 1)
	for i := 0; i < 400; i++ {
		s.WarmLibrary(pulse.NewLibrary(true))
		s.WarmSynthCache(synth.NewCache())
		if i%50 == 49 {
			runtime.GC()
		}
	}
	if n, m := len(s.libs.m), len(s.caches.m); n > 200 || m > 200 {
		t.Fatalf("tracker holds %d libraries and %d caches after 400 discarded ones", n, m)
	}
}

// TestCanonicalPulseAcrossRestart: two records for one unitary on disk
// (two compiles that both stored a pulse for it) warm the canonical
// one, the shorter pulse, whichever of the two sorts first by name.
func TestCanonicalPulseAcrossRestart(t *testing.T) {
	root := t.TempDir()
	u, long := testPulse(0)
	short := *long
	short.Duration--
	short.Label = "short"
	s, err := Open(root, "ns")
	if err != nil {
		t.Fatal(err)
	}
	a, b := pulse.NewLibrary(true), pulse.NewLibrary(true)
	a.Store(u, long)
	b.Store(u, &short)
	if s.HarvestLibrary(a)+s.HarvestLibrary(b) != 2 {
		t.Fatal("the two records were not both staged")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(root, "ns")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	lib := pulse.NewLibrary(true)
	s.WarmLibrary(lib)
	if got, _ := lib.Lookup(u); got == nil || got.Label != "short" || lib.Len() != 1 {
		t.Fatalf("warmed %+v (%d entries), want the short pulse alone", got, lib.Len())
	}
}
