package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"epoc/internal/linalg"
	"epoc/internal/pulse"
	"epoc/internal/store"
	"epoc/internal/synth"
)

// warmedShared opens the store under dir and warms a fresh shared
// library and cache from it, as epoc-serve does at startup, and
// returns options that compile through all three.
func warmedShared(t testing.TB, dir string) (Options, *store.Store) {
	t.Helper()
	st, err := OpenStore(dir, storeTestOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	opts := storeTestOpts(2)
	opts.Store, opts.Library, opts.SynthCache = st, pulse.NewLibrary(true), synth.NewCache()
	st.WarmLibrary(opts.Library)
	st.WarmSynthCache(opts.SynthCache)
	return opts, st
}

// TestRepeatCompileOnWarmStoreDoesNoStoreWork: on a store that warmed
// the shared caches at startup, a repeat compile imports nothing and
// encodes nothing. Every warmed pulse is made unencodable first, so an
// encode would show as a Skipped count.
func TestRepeatCompileOnWarmStoreDoesNoStoreWork(t *testing.T) {
	dir := t.TempDir()
	c := rotCircuit(0.5)
	if _, err := compileOnStore(t, dir, c, storeTestOpts(2)); err != nil {
		t.Fatal(err)
	}
	opts, st := warmedShared(t, dir)
	for _, e := range opts.Library.Export() {
		e.P.Label = strings.Repeat("x", 1<<10)
	}
	before := st.Counters()
	for i := 0; i < 2; i++ {
		res, err := Compile(c, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.QOCRuns != 0 || res.Stats.SynthCacheMisses != 0 {
			t.Fatalf("repeat %d ran %d QOC searches and %d syntheses", i, res.Stats.QOCRuns, res.Stats.SynthCacheMisses)
		}
	}
	if after := st.Counters(); after != before {
		t.Fatalf("repeat compiles did store work:\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestSequentialStoreRecordsMatchExport: a fixed sequential run through
// one shared store (cold, repeat, novel, repeat) leaves exactly the
// records, names and bytes, that encoding every library and cache
// entry would.
func TestSequentialStoreRecordsMatchExport(t *testing.T) {
	dir := t.TempDir()
	opts, st := warmedShared(t, dir)
	for _, theta := range []float64{0.5, 0.5, 0.9, 0.5} {
		if _, err := Compile(rotCircuit(theta), opts); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	add := func(name string, data []byte, err error) {
		if err == nil {
			want[name] = data
		}
	}
	for _, e := range opts.Library.Export() {
		add(store.EncodePulseRecord(e.U, e.P))
	}
	entries, _ := opts.SynthCache.ExportSince(0)
	for _, e := range entries {
		add(store.EncodeSynthRecord(e.U, e.Circ, e.Ok))
	}
	files, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for _, f := range files {
		if !strings.HasSuffix(f.Name(), ".rec") {
			continue
		}
		got++
		data, err := os.ReadFile(filepath.Join(st.Dir(), f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if w, ok := want[f.Name()]; !ok || !bytes.Equal(w, data) {
			t.Fatalf("record %s is not the encoding of a library or cache entry", f.Name())
		}
	}
	if got != len(want) || got == 0 {
		t.Fatalf("store holds %d records, the entries encode to %d", got, len(want))
	}
}

// BenchmarkRepeatCompileWarmStore times one repeat compile on a shared
// store that warmed the shared caches at startup, at about the store
// sizes of perfbench's serve_warm (about 15 and 170 records). The
// filler records are random 2-qubit unitaries with amplitude-carrying
// pulses, so they enter the warm-start snapshot as real pulses do. The
// cost per op should not grow with the store; "nostore" is the same
// compile with no store attached.
func BenchmarkRepeatCompileWarmStore(b *testing.B) {
	c := rotCircuit(0.5)
	for _, records := range []int{0, 15, 170} {
		name := fmt.Sprintf("records=%d", records)
		if records == 0 {
			name = "nostore"
		}
		b.Run(name, func(b *testing.B) {
			dir := b.TempDir()
			opts := storeTestOpts(2)
			if records == 0 {
				opts.Library, opts.SynthCache = pulse.NewLibrary(true), synth.NewCache()
				if _, err := Compile(c, opts); err != nil {
					b.Fatal(err)
				}
			} else {
				if _, err := compileOnStore(b, dir, c, opts); err != nil {
					b.Fatal(err)
				}
				fillStore(b, dir, records)
				opts, _ = warmedShared(b, dir)
				if _, err := Compile(c, opts); err != nil {
					b.Fatal(err)
				}
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := CompileContext(ctx, c, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// fillStore adds pulse records under dir until its namespace holds n.
func fillStore(b *testing.B, dir string, n int) {
	b.Helper()
	st, err := OpenStore(dir, storeTestOpts(2))
	if err != nil {
		b.Fatal(err)
	}
	pn, sn := st.Len()
	lib := pulse.NewLibrary(true)
	rng := rand.New(rand.NewSource(29))
	for i := pn + sn; i < n; i++ {
		amps := make([][]float64, 24)
		for k := range amps {
			amps[k] = []float64{rng.NormFloat64() * 0.01, rng.NormFloat64() * 0.01, rng.NormFloat64() * 0.01, rng.NormFloat64() * 0.01, rng.NormFloat64() * 0.01}
		}
		lib.Store(linalg.RandomUnitary(4, rng), &pulse.Pulse{Label: "unitary[2q]", Duration: 48, Fidelity: 0.999, Slots: len(amps), Amps: amps})
	}
	st.HarvestLibrary(lib)
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
}
