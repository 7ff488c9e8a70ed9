package synth

import (
	"sync"

	"epoc/internal/circuit"
	"epoc/internal/faultclock"
	"epoc/internal/linalg"
)

// CacheStatus classifies the outcome of a Cache.GetOrCompute call.
type CacheStatus int

const (
	// CacheMiss: no entry existed; this call ran the synthesis.
	CacheMiss CacheStatus = iota
	// CacheHit: a completed entry existed and was returned directly.
	CacheHit
	// CacheCoalesced: another goroutine was already synthesizing the
	// same unitary; this call waited for its result instead of racing.
	CacheCoalesced
)

// String names the status for reports and trace attributes; the
// coalesced case reads "wait" to contrast with a computing miss.
func (s CacheStatus) String() string {
	switch s {
	case CacheHit:
		return "hit"
	case CacheCoalesced:
		return "wait"
	default:
		return "miss"
	}
}

// CacheTol bounds the verified phase distance between a requested
// unitary and a stored entry (or, in the pipeline's duplicate-block
// grouping, between two blocks sharing one synthesis). It is tighter
// than the pulse library's matchTol because a cached circuit is
// substituted for the block wholesale: two blocks may only share a
// realization when their unitaries agree (up to global phase) well
// below the synthesis accuracy threshold, so reuse never adds
// observable error. It still sits comfortably above the ~1e-8
// numerical noise floor of PhaseDistance on identical matrices
// (sqrt amplifies the ~1e-16 trace rounding), so true duplicates
// always match.
const CacheTol = 1e-6

// Cache is a goroutine-safe synthesis cache keyed by block unitary up
// to global phase, using the same canonical-phase fingerprint scheme
// as the pulse library. Duplicate unitaries are synthesized once;
// concurrent requests for an in-flight unitary coalesce onto the
// first computation rather than racing it. Every lookup is verified
// against the stored unitary, so fingerprint collisions degrade to
// independent entries instead of wrong circuits.
//
// Cached circuits are shared between callers and must be treated as
// immutable. All methods are safe on a nil *Cache: GetOrCompute then
// degrades to calling compute directly (no caching, no coalescing).
//
// Each completed fill and each import is appended to an insertion log,
// which ExportSince reads from a position, so a persistent store
// harvests only what is new. A fill enters the log when it completes:
// an in-flight fill is not yet in it, and a failed one never is.
type Cache struct {
	mu      sync.Mutex
	entries map[string][]*cacheEntry
	log     []*cacheEntry // completed entries in completion order
}

// cacheEntry is one synthesized unitary class. done is closed once
// circ/ok are populated; readers that find an open entry wait on it.
type cacheEntry struct {
	u    *linalg.Matrix
	done chan struct{}
	circ *circuit.Circuit
	ok   bool
}

// NewCache returns an empty synthesis cache.
func NewCache() *Cache {
	return &Cache{entries: map[string][]*cacheEntry{}}
}

// Key is a unitary's cache key: its fingerprint, with the unitary
// itself for hit verification. A caller that groups unitaries by key
// before it consults the cache, as stage 3 does, fingerprints each
// unitary once and hands the key on, as pulse.Key does for the pulse
// library.
type Key struct {
	s string
	u *linalg.Matrix
}

// KeyOf fingerprints u.
func KeyOf(u *linalg.Matrix) Key { return Key{s: linalg.Fingerprint(u), u: u} }

// String returns the key's fingerprint.
func (k Key) String() string { return k.s }

// GetOrCompute is GetOrComputeKey under u's key.
func (c *Cache) GetOrCompute(g *faultclock.Gate, u *linalg.Matrix, compute func() (*circuit.Circuit, bool, error)) (*circuit.Circuit, bool, CacheStatus, error) {
	return c.GetOrComputeKey(g, KeyOf(u), compute)
}

// GetOrComputeKey returns the cached synthesis result for k's unitary,
// running compute exactly once per unitary class (up to global phase).
// The returned ok mirrors SynthesizeOutcome: true when the synthesis
// reached the accuracy threshold, false when the caller should fall
// back to the block's original realization. compute must not call
// back into the same Cache.
//
// A compute that returns a non-nil error (cancellation or budget
// exhaustion) never lands in the cache: its entry is removed before
// waiters are released, so a canceled or budget-starved fill cannot
// poison later compiles that run with a fresh budget. Coalesced
// callers that were waiting on such a fill retry the lookup — under
// their own gate — and either find a fresh fill or run compute
// themselves. The gate also makes the wait cancellable: a waiter
// whose context is canceled returns promptly with the context's
// error instead of blocking on someone else's synthesis.
func (c *Cache) GetOrComputeKey(g *faultclock.Gate, k Key, compute func() (*circuit.Circuit, bool, error)) (*circuit.Circuit, bool, CacheStatus, error) {
	if c == nil {
		circ, ok, err := compute()
		return circ, ok, CacheMiss, err
	}
	key, u := k.s, k.u
	waited := false
	for {
		c.mu.Lock()
		var inflight *cacheEntry
		for _, e := range c.entries[key] {
			if e.u.Rows != u.Rows || linalg.PhaseDistance(e.u, u) >= CacheTol {
				continue
			}
			select {
			case <-e.done: // completed entry
				status := CacheHit
				if waited {
					status = CacheCoalesced
				}
				c.mu.Unlock()
				return e.circ, e.ok, status, nil
			default: // in flight: wait outside the lock
				inflight = e
			}
			break
		}
		if inflight == nil {
			e := &cacheEntry{u: u.Clone(), done: make(chan struct{})}
			c.entries[key] = append(c.entries[key], e)
			c.mu.Unlock()
			circ, ok, err := compute()
			if err != nil {
				c.remove(key, e)
				close(e.done)
				return circ, ok, CacheMiss, err
			}
			c.mu.Lock()
			e.circ, e.ok = circ, ok
			c.log = append(c.log, e)
			c.mu.Unlock()
			close(e.done)
			return circ, ok, CacheMiss, nil
		}
		waited = true
		c.mu.Unlock()
		if err := g.Check(faultclock.SiteCacheWait); err != nil {
			return nil, false, CacheCoalesced, err
		}
		select {
		case <-inflight.done:
			// Loop: a successful fill is found as a completed entry on
			// the retry; a failed one was removed, so the retry either
			// finds a newer fill or becomes the computer.
		case <-g.Done():
			return nil, false, CacheCoalesced, g.Err()
		}
	}
}

// remove deletes a failed in-flight entry so it is never observed as
// a completed fill. Called before the entry's done channel closes.
func (c *Cache) remove(key string, target *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	es := c.entries[key]
	for i, e := range es {
		if e == target {
			c.entries[key] = append(es[:i:i], es[i+1:]...)
			return
		}
	}
}

// Entry is one exported cache entry: the unitary, its synthesized
// circuit (nil when none was usable) and the threshold outcome — the
// unit the persistent store (internal/store) serializes.
type Entry struct {
	U    *linalg.Matrix
	Circ *circuit.Circuit
	Ok   bool
}

// ExportSince returns the entries logged at or after position pos, in
// completion order, and the log's end: the position to resume from.
// It never waits on an in-flight fill: a harvest runs at compile
// boundaries and must not block on another compile's synthesis, and
// the fill is logged, after pos, once it completes.
func (c *Cache) ExportSince(pos int) ([]Entry, int) {
	if c == nil {
		return nil, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Entry, 0, len(c.log)-pos)
	for _, e := range c.log[pos:] {
		out = append(out, Entry{U: e.u, Circ: e.circ, Ok: e.ok})
	}
	return out, len(c.log)
}

// Import seeds the cache with a completed synthesis result unless a
// verified-equal entry already exists, reporting whether it was added.
func (c *Cache) Import(u *linalg.Matrix, circ *circuit.Circuit, ok bool) bool {
	if c == nil || u == nil {
		return false
	}
	key := linalg.Fingerprint(u)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries[key] {
		if e.u.Rows == u.Rows && linalg.PhaseDistance(e.u, u) < CacheTol {
			return false // present (completed or in flight — either way, not ours to replace)
		}
	}
	e := &cacheEntry{u: u.Clone(), done: make(chan struct{}), circ: circ, ok: ok}
	close(e.done)
	c.entries[key] = append(c.entries[key], e)
	c.log = append(c.log, e)
	return true
}

// Len returns the number of distinct unitary classes stored.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, es := range c.entries {
		n += len(es)
	}
	return n
}
