package synth

import (
	"context"
	"errors"
	"testing"
	"time"

	"epoc/internal/circuit"
	"epoc/internal/faultclock"
	"epoc/internal/gate"
)

// TestCacheFailedFillNotCached: a compute that errors (canceled or
// budget-starved) must leave no entry behind — the next lookup runs a
// fresh compute and only that clean result is cached.
func TestCacheFailedFillNotCached(t *testing.T) {
	for _, fail := range []error{context.Canceled, faultclock.ErrBudget} {
		c := NewCache()
		u := gate.New(gate.CX).Matrix()
		_, _, st, err := c.GetOrCompute(nil, u, func() (*circuit.Circuit, bool, error) {
			return nil, false, fail
		})
		if !errors.Is(err, fail) || st != CacheMiss {
			t.Fatalf("failed fill: err=%v status=%v", err, st)
		}
		if c.Len() != 0 {
			t.Fatalf("failed fill left %d cache entries", c.Len())
		}
		calls := 0
		_, ok, st, err := c.GetOrCompute(nil, u, func() (*circuit.Circuit, bool, error) {
			calls++
			return cxCircuit(), true, nil
		})
		if err != nil || !ok || st != CacheMiss || calls != 1 {
			t.Fatalf("retry after failed fill: ok=%v status=%v calls=%d err=%v", ok, st, calls, err)
		}
		if _, _, st, _ := c.GetOrCompute(nil, u, nil); st != CacheHit {
			t.Fatalf("clean retry was not cached: status %v", st)
		}
	}
}

// TestCacheWaiterCanceledPromptly: a coalesced waiter whose context is
// canceled returns the context error without waiting for the
// in-flight fill. The cancel is armed on the waiter's own
// cache/wait announcement, so no wall-clock sleeps are involved.
func TestCacheWaiterCanceledPromptly(t *testing.T) {
	c := NewCache()
	u := gate.New(gate.CX).Matrix()
	started := make(chan struct{})
	release := make(chan struct{})
	fillDone := make(chan struct{})
	go func() {
		defer close(fillDone)
		c.GetOrCompute(nil, u, func() (*circuit.Circuit, bool, error) {
			close(started)
			<-release
			return cxCircuit(), true, nil
		})
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inj := faultclock.NewInjector()
	inj.TripAfter(faultclock.SiteCacheWait, 1, cancel)
	g := &faultclock.Gate{Ctx: ctx, Inj: inj}
	_, _, st, err := c.GetOrCompute(g, u, func() (*circuit.Circuit, bool, error) {
		t.Error("canceled waiter ran a compute")
		return nil, false, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}
	if st != CacheCoalesced {
		t.Fatalf("waiter status = %v, want CacheCoalesced", st)
	}

	// The original fill is unaffected: releasing it caches the result.
	close(release)
	<-fillDone
	if _, ok, st, err := c.GetOrCompute(nil, u, nil); err != nil || !ok || st != CacheHit {
		t.Fatalf("fill after canceled waiter: ok=%v status=%v err=%v", ok, st, err)
	}
}

// TestCacheWaiterRetriesAfterFailedFill: a waiter parked on a fill
// that fails must not inherit the failure — it retries, becomes the
// computer, and its clean result is what ends up cached.
func TestCacheWaiterRetriesAfterFailedFill(t *testing.T) {
	c := NewCache()
	u := gate.New(gate.CX).Matrix()
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		c.GetOrCompute(nil, u, func() (*circuit.Circuit, bool, error) {
			close(started)
			<-release
			return nil, false, context.Canceled
		})
	}()
	<-started

	type res struct {
		ok  bool
		st  CacheStatus
		err error
	}
	waiterDone := make(chan res, 1)
	waiterCalls := 0
	g, _, parked := waitSignal()
	go func() {
		_, ok, st, err := c.GetOrCompute(g, u, func() (*circuit.Circuit, bool, error) {
			waiterCalls++
			return cxCircuit(), true, nil
		})
		waiterDone <- res{ok: ok, st: st, err: err}
	}()
	<-parked       // the waiter holds the in-flight entry
	close(release) // the fill now fails and is removed

	got := <-waiterDone
	if got.err != nil {
		t.Fatalf("waiter inherited the failed fill: %v", got.err)
	}
	if !got.ok || got.st != CacheMiss || waiterCalls != 1 {
		t.Fatalf("waiter should have computed its own result: ok=%v status=%v calls=%d", got.ok, got.st, waiterCalls)
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries, want the waiter's clean fill", c.Len())
	}
	if _, ok, st, _ := c.GetOrCompute(nil, u, nil); !ok || st != CacheHit {
		t.Fatalf("waiter's fill not served: ok=%v status=%v", ok, st)
	}
}

// TestCacheWaiterSeesBudgetDeadline: a waiter whose gate deadline has
// passed (fake clock) gives up the wait with ErrBudget instead of
// blocking on a fill that may take arbitrarily long.
func TestCacheWaiterSeesBudgetDeadline(t *testing.T) {
	c := NewCache()
	u := gate.New(gate.CX).Matrix()
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go func() {
		c.GetOrCompute(nil, u, func() (*circuit.Circuit, bool, error) {
			close(started)
			<-release
			return cxCircuit(), true, nil
		})
	}()
	<-started

	fake := faultclock.NewFake()
	g := &faultclock.Gate{Clock: fake, Deadline: fake.Now().Add(-time.Second)}
	_, _, st, err := c.GetOrCompute(g, u, nil)
	if !faultclock.IsBudget(err) {
		t.Fatalf("expired waiter err = %v, want ErrBudget", err)
	}
	if st != CacheCoalesced {
		t.Fatalf("expired waiter status = %v, want CacheCoalesced", st)
	}
}

// TestCacheExportSince: a harvest that runs while a fill is in flight
// does not see it, and the first harvest after the fill lands does; a
// failed fill is never exported. Resuming from each returned position
// exports every completed entry exactly once.
func TestCacheExportSince(t *testing.T) {
	c := NewCache()
	cx, cz := gate.New(gate.CX).Matrix(), gate.New(gate.CZ).Matrix()
	swap, rz := gate.New(gate.SWAP).Matrix(), gate.New(gate.RZ, 0.3).Matrix()
	started, release, filled := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(filled)
		c.GetOrCompute(nil, cx, func() (*circuit.Circuit, bool, error) {
			close(started)
			<-release
			return cxCircuit(), true, nil
		})
	}()
	<-started
	if !c.Import(cz, nil, false) {
		t.Fatal("import was refused")
	}
	if _, _, _, err := c.GetOrCompute(nil, swap, func() (*circuit.Circuit, bool, error) {
		return nil, false, context.Canceled
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("failed fill: %v", err)
	}
	seen := map[*circuit.Circuit]int{}
	var units []int
	harvest := func(pos int) int {
		es, end := c.ExportSince(pos)
		for _, e := range es {
			seen[e.Circ]++
			units = append(units, e.U.Rows)
		}
		return end
	}
	pos := harvest(0)
	if len(units) != 1 || pos != 1 {
		t.Fatalf("harvest during the fill exported %d entries to position %d, want the import alone", len(units), pos)
	}
	close(release)
	<-filled
	if _, _, _, err := c.GetOrCompute(nil, rz, func() (*circuit.Circuit, bool, error) {
		c1 := circuit.New(1)
		c1.Append(gate.New(gate.RZ, 0.3), 0)
		return c1, true, nil
	}); err != nil {
		t.Fatal(err)
	}
	pos = harvest(pos)
	if pos = harvest(pos); pos != 3 || len(units) != 3 {
		t.Fatalf("after the fill landed: %d entries exported, position %d; want 3, 3", len(units), pos)
	}
	for circ, n := range seen {
		if n != 1 {
			t.Fatalf("entry %v exported %d times", circ, n)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("cache holds %d entries, want 3 (the failed fill left none)", c.Len())
	}
}
