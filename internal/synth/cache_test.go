package synth

import (
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"

	"epoc/internal/circuit"
	"epoc/internal/faultclock"
	"epoc/internal/gate"
	"epoc/internal/linalg"
)

func cxCircuit() *circuit.Circuit {
	c := circuit.New(2)
	c.Append(gate.New(gate.CX), 0, 1)
	return c
}

func TestCacheHitMissCounting(t *testing.T) {
	c := NewCache()
	u := gate.New(gate.CX).Matrix()
	calls := 0
	compute := func() (*circuit.Circuit, bool, error) {
		calls++
		return cxCircuit(), true, nil
	}
	circ1, ok, st, _ := c.GetOrCompute(nil, u, compute)
	if !ok || st != CacheMiss || calls != 1 {
		t.Fatalf("first lookup: ok=%v status=%v calls=%d", ok, st, calls)
	}
	circ2, ok, st, _ := c.GetOrCompute(nil, u, compute)
	if !ok || st != CacheHit || calls != 1 {
		t.Fatalf("second lookup: ok=%v status=%v calls=%d", ok, st, calls)
	}
	if circ1 != circ2 {
		t.Fatal("hit returned a different circuit instance")
	}
	if c.Len() != 1 {
		t.Fatalf("len=%d, want 1", c.Len())
	}
}

func TestCacheMatchesUpToGlobalPhase(t *testing.T) {
	c := NewCache()
	u := gate.New(gate.CX).Matrix()
	phased := u.Scale(cmplx.Exp(0.7i))
	calls := 0
	compute := func() (*circuit.Circuit, bool, error) {
		calls++
		return cxCircuit(), true, nil
	}
	if _, _, st, _ := c.GetOrCompute(nil, u, compute); st != CacheMiss {
		t.Fatalf("expected miss, got %v", st)
	}
	if _, _, st, _ := c.GetOrCompute(nil, phased, compute); st != CacheHit {
		t.Fatalf("phase-rotated unitary should hit, got %v (calls=%d)", st, calls)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times", calls)
	}
}

func TestCacheDistinguishesDistinctUnitaries(t *testing.T) {
	c := NewCache()
	rng := rand.New(rand.NewSource(11))
	u1 := linalg.RandomUnitary(4, rng)
	u2 := linalg.RandomUnitary(4, rng)
	calls := 0
	compute := func() (*circuit.Circuit, bool, error) {
		calls++
		return cxCircuit(), true, nil
	}
	c.GetOrCompute(nil, u1, compute)
	if _, _, st, _ := c.GetOrCompute(nil, u2, compute); st != CacheMiss {
		t.Fatalf("distinct unitary should miss, got %v", st)
	}
	if calls != 2 || c.Len() != 2 {
		t.Fatalf("calls=%d len=%d", calls, c.Len())
	}
}

// TestCacheCoalescesInFlight pins the coalescing contract: a second
// request for an in-flight unitary waits for the first computation
// instead of starting its own.
func TestCacheCoalescesInFlight(t *testing.T) {
	c := NewCache()
	u := gate.New(gate.CX).Matrix()
	started := make(chan struct{})
	release := make(chan struct{})
	var calls sync.WaitGroup
	calls.Add(1)
	go func() {
		defer calls.Done()
		_, ok, st, _ := c.GetOrCompute(nil, u, func() (*circuit.Circuit, bool, error) {
			close(started)
			<-release
			return cxCircuit(), true, nil
		})
		if !ok || st != CacheMiss {
			t.Errorf("first requester: ok=%v status=%v", ok, st)
		}
	}()
	<-started // the first computation is now in flight
	g, inj, parked := waitSignal()
	done := make(chan CacheStatus, 1)
	go func() {
		_, _, st, _ := c.GetOrCompute(g, u, func() (*circuit.Circuit, bool, error) {
			t.Error("coalesced requester ran its own compute")
			return nil, false, nil
		})
		done <- st
	}()
	// Wait until the second requester is parked on the in-flight entry,
	// then check it has not finished.
	<-parked
	select {
	case st := <-done:
		t.Fatalf("second requester finished before the first (status %v)", st)
	default:
	}
	close(release)
	if st := <-done; st != CacheCoalesced {
		t.Fatalf("second requester status %v, want CacheCoalesced", st)
	}
	calls.Wait()
	if n := inj.Hits(faultclock.SiteCacheWait); n != 1 || c.Len() != 1 {
		t.Fatalf("waits=%d len=%d, want one wait on one entry", n, c.Len())
	}
}

// waitSignal returns a gate for a requester expected to coalesce, its
// injector, and a channel closed at the requester's first cache wait:
// by then it holds the in-flight entry it will wait on.
func waitSignal() (*faultclock.Gate, *faultclock.Injector, <-chan struct{}) {
	inj := faultclock.NewInjector()
	parked := make(chan struct{})
	inj.TripAfter(faultclock.SiteCacheWait, 1, func() { close(parked) })
	return &faultclock.Gate{Inj: inj}, inj, parked
}

func TestCacheNilSafe(t *testing.T) {
	var c *Cache
	u := gate.New(gate.CX).Matrix()
	calls := 0
	for i := 0; i < 2; i++ {
		_, ok, st, _ := c.GetOrCompute(nil, u, func() (*circuit.Circuit, bool, error) {
			calls++
			return cxCircuit(), true, nil
		})
		if !ok || st != CacheMiss {
			t.Fatalf("nil cache: ok=%v status=%v", ok, st)
		}
	}
	if calls != 2 {
		t.Fatalf("nil cache must always compute; calls=%d", calls)
	}
	if c.Len() != 0 {
		t.Fatal("nil cache must hold no entries")
	}
}

// TestCachePreservesFallbackFlag: a failed synthesis outcome (ok =
// false) is cached too, so duplicates don't re-run a search that is
// known to miss the threshold — but each caller still applies its own
// fallback.
func TestCachePreservesFallbackFlag(t *testing.T) {
	c := NewCache()
	u := gate.New(gate.CX).Matrix()
	calls := 0
	compute := func() (*circuit.Circuit, bool, error) {
		calls++
		return cxCircuit(), false, nil
	}
	if _, ok, _, _ := c.GetOrCompute(nil, u, compute); ok {
		t.Fatal("expected ok=false from compute")
	}
	if _, ok, st, _ := c.GetOrCompute(nil, u, compute); ok || st != CacheHit {
		t.Fatalf("cached failure: ok=%v status=%v", ok, st)
	}
	if calls != 1 {
		t.Fatalf("failed synthesis re-ran: calls=%d", calls)
	}
}
