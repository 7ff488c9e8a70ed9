package core

import (
	"sync"
	"testing"

	"epoc/internal/benchcirc"
	"epoc/internal/gate"
	"epoc/internal/hardware"
	"epoc/internal/obs"
	"epoc/internal/pulse"
	"epoc/internal/synth"
)

// TestConcurrentCompilesSharedRecorderAndCache hammers Compile from
// many goroutines sharing one obs.Recorder and one synthesis cache —
// the supported sharing surface. Each goroutine gets its own pulse
// library (Library is documented as not goroutine-safe). Under -race
// this exercises the cache's in-flight coalescing and the recorder's
// counter/span/distribution paths concurrently; functionally, every
// compile of the same circuit must agree.
func TestConcurrentCompilesSharedRecorderAndCache(t *testing.T) {
	c, _ := benchcirc.Get("qaoa")
	dev := hardware.LinearChain(c.NumQubits)
	rec := obs.New()
	cache := synth.NewCache()

	const goroutines = 8
	results := make([]*Result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Compile(c, Options{
				Strategy:   EPOC,
				Device:     dev,
				Mode:       QOCEstimate,
				Workers:    2,
				Obs:        rec,
				SynthCache: cache,
				Library:    pulse.NewLibrary(true),
			})
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	first := results[0]
	for i, res := range results[1:] {
		if res.Latency != first.Latency || res.Fidelity != first.Fidelity {
			t.Fatalf("goroutine %d diverged: latency %v vs %v, fidelity %v vs %v",
				i+1, res.Latency, first.Latency, res.Fidelity, first.Fidelity)
		}
	}

	// The shared cache synthesized each unitary class exactly once
	// across all compiles: every compile after the first was served
	// entirely by hits or coalesced waits.
	totalMisses := int64(0)
	for _, res := range results {
		totalMisses += int64(res.Stats.SynthCacheMisses)
	}
	if totalMisses != int64(cache.Len()) {
		t.Fatalf("compiles synthesized %d times for %d cached classes", totalMisses, cache.Len())
	}
	snap := rec.Snapshot()
	if snap.Counters["synthcache/miss"] != totalMisses {
		t.Fatalf("recorder counted %d misses, compiles %d",
			snap.Counters["synthcache/miss"], totalMisses)
	}
	if snap.Counters["synthcache/hit"]+snap.Counters["synthcache/coalesced"] == 0 {
		t.Fatal("no cache reuse across concurrent compiles of the same circuit")
	}
}

// TestLibraryStatsIgnoreConcurrentLookups: a compile's library hits
// and misses are its own lookups, one per placed pulse, however busy
// other goroutines keep the shared library.
func TestLibraryStatsIgnoreConcurrentLookups(t *testing.T) {
	c, _ := benchcirc.Get("qaoa")
	lib := pulse.NewLibrary(true)
	u := gate.New(gate.CX).Matrix()
	running, stop := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		lib.Lookup(u)
		close(running)
		for {
			select {
			case <-stop:
				return
			default:
				lib.Lookup(u)
			}
		}
	}()
	<-running
	rec := obs.New()
	res, err := Compile(c, Options{
		Strategy: EPOC,
		Device:   hardware.LinearChain(c.NumQubits),
		Mode:     QOCEstimate,
		Library:  lib,
		Obs:      rec,
	})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.LibraryHits+st.LibraryMisses != st.PulseCount {
		t.Fatalf("library hits %d + misses %d, want one lookup per pulse (%d)",
			st.LibraryHits, st.LibraryMisses, st.PulseCount)
	}
	snap := rec.Snapshot()
	if snap.Counters["library/hits"] != int64(st.LibraryHits) || snap.Counters["library/misses"] != int64(st.LibraryMisses) {
		t.Fatalf("obs library/hits %d, misses %d; Stats %d, %d",
			snap.Counters["library/hits"], snap.Counters["library/misses"], st.LibraryHits, st.LibraryMisses)
	}
}
