// Package pulse models the pulse-level artifacts of compilation:
// control-pulse descriptors produced by QOC, per-qubit-line ASAP
// schedules with latency and utilization accounting, and the pulse
// library — a lookup table keyed by unitary fingerprints (global-phase
// aware, as in EPOC) that lets compilations reuse previously optimized
// pulses.
package pulse

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"epoc/internal/linalg"
)

// Pulse is one optimized control envelope implementing a unitary on a
// set of qubits.
type Pulse struct {
	Label    string      // human-readable origin, e.g. "cx" or "unitary[2q]"
	Qubits   []int       // global qubits, ascending gate-local order
	Duration float64     // ns
	Fidelity float64     // |tr(U†·achieved)|/dim from QOC (1.0 for calibrated gates)
	Slots    int         // time slots (0 for calibrated analytic pulses)
	Amps     [][]float64 // optional raw amplitudes [slot][control]
}

// Item is a pulse placed at a start time in a schedule.
type Item struct {
	Pulse *Pulse
	Start float64
}

// End returns the item's finish time.
func (it Item) End() float64 { return it.Start + it.Pulse.Duration }

// Schedule is an ASAP-packed pulse program for a device.
type Schedule struct {
	NumQubits int
	Items     []Item
	Latency   float64 // ns: finish time of the last pulse
	fronts    []float64
}

// NewSchedule creates an empty schedule.
func NewSchedule(n int) *Schedule {
	return &Schedule{NumQubits: n}
}

// Add places a pulse as soon as all its qubit lines are free (ASAP)
// and returns its start time.
func (s *Schedule) Add(p *Pulse) float64 {
	if s.fronts == nil {
		s.fronts = make([]float64, s.NumQubits)
	}
	start := 0.0
	for _, q := range p.Qubits {
		if q < 0 || q >= s.NumQubits {
			panic(fmt.Sprintf("pulse: qubit %d out of range (n=%d)", q, s.NumQubits))
		}
		if s.fronts[q] > start {
			start = s.fronts[q]
		}
	}
	end := start + p.Duration
	for _, q := range p.Qubits {
		s.fronts[q] = end
	}
	s.Items = append(s.Items, Item{Pulse: p, Start: start})
	if end > s.Latency {
		s.Latency = end
	}
	return start
}

// TotalFidelity returns the ESP of the schedule: the product of pulse
// fidelities (Equation 3 of the paper).
func (s *Schedule) TotalFidelity() float64 {
	f := 1.0
	for _, it := range s.Items {
		f *= it.Pulse.Fidelity
	}
	return f
}

// Utilization returns, per qubit line, the fraction of the schedule's
// latency during which a pulse drives that line.
func (s *Schedule) Utilization() []float64 {
	busy := make([]float64, s.NumQubits)
	for _, it := range s.Items {
		for _, q := range it.Pulse.Qubits {
			busy[q] += it.Pulse.Duration
		}
	}
	out := make([]float64, s.NumQubits)
	//epoc:lint-ignore floatcmp latency is exactly 0 only for an empty schedule
	if s.Latency == 0 {
		return out
	}
	for q := range out {
		out[q] = busy[q] / s.Latency
	}
	return out
}

// String renders the schedule as a timeline table.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule(%d qubits, %d pulses, latency %.1f ns)\n", s.NumQubits, len(s.Items), s.Latency)
	items := append([]Item(nil), s.Items...)
	sort.Slice(items, func(i, j int) bool { return items[i].Start < items[j].Start })
	for _, it := range items {
		fmt.Fprintf(&b, "  %8.1f - %8.1f  %-14s q%v  F=%.5f\n",
			it.Start, it.End(), it.Pulse.Label, it.Pulse.Qubits, it.Pulse.Fidelity)
	}
	return b.String()
}

// Library caches optimized pulses by unitary fingerprint. With
// MatchGlobalPhase (EPOC's improvement over AccQOC/PAQOC), unitaries
// equal up to a global phase share an entry, raising the hit rate.
// Every hit is verified against the stored unitary, so fingerprint
// collisions degrade to misses instead of wrong pulses.
//
// A Library is goroutine-safe and may be shared across concurrent
// compilations (the long-lived server in internal/serve shares one
// process-wide). Unlike synth.Cache it does not coalesce in-flight
// work: two concurrent compiles that miss on the same unitary both
// run QOC and both store. The library keeps one canonical entry per
// verified-equal unitary (see prefer), so which of the two it serves
// does not depend on their timing, and neither does what a restart
// warmed from their records serves. The library keeps no hit/miss
// tally: a shared library's totals mix every compile's lookups, so
// each compile counts its own in core.Stats.
//
// A library never drops an entry; an entry changes only when a
// preferred pulse replaces it. Every new or replacing entry is
// appended to an insertion log, which ExportSince reads from a
// position, so a persistent store harvests only what is new.
type Library struct {
	MatchGlobalPhase bool

	mu      sync.Mutex
	entries map[string][]*libEntry
	log     []*libEntry // insertion log, replaced entries included
	snap    []Entry     // Export's snapshot; nil until rebuilt after a change
}

type libEntry struct {
	u        *linalg.Matrix
	p        *Pulse
	replaced bool // a preferred pulse took this entry's place
}

// NewLibrary returns an empty library; matchGlobalPhase selects the
// EPOC keying behaviour.
func NewLibrary(matchGlobalPhase bool) *Library {
	return &Library{MatchGlobalPhase: matchGlobalPhase, entries: map[string][]*libEntry{}}
}

// Key is a unitary's lookup key: its fingerprint under a library's
// keying, with the unitary itself for hit verification. A key made by
// one library is valid in every library with the same
// MatchGlobalPhase, so a caller that consults several libraries
// fingerprints each unitary once.
type Key struct {
	s string
	u *linalg.Matrix
}

// Key fingerprints a unitary. Without global-phase matching the raw
// rounded entries are used, so e^{iφ}·U and U key differently.
func (l *Library) Key(u *linalg.Matrix) Key {
	if l.MatchGlobalPhase {
		return Key{s: linalg.Fingerprint(u), u: u}
	}
	buf := make([]byte, 0, len(u.Data)*20+8)
	buf = strconv.AppendInt(buf, int64(u.Rows), 10)
	buf = append(buf, 'x')
	buf = strconv.AppendInt(buf, int64(u.Cols), 10)
	buf = append(buf, ':')
	for _, v := range u.Data {
		buf = linalg.AppendFixed5(buf, real(v))
		buf = append(buf, ',')
		buf = linalg.AppendFixed5(buf, imag(v))
		buf = append(buf, ';')
	}
	return Key{s: string(buf), u: u}
}

// matchTol bounds the verified distance between a looked-up unitary
// and a stored entry. Entries farther than this are fingerprint
// collisions and are skipped.
const matchTol = 1e-4

// find returns the index in k's collision chain of the verified entry
// for k, or -1. The caller must hold l.mu.
func (l *Library) find(k Key) int {
	for i, e := range l.entries[k.s] {
		if e.u.Rows != k.u.Rows {
			continue
		}
		var d float64
		if l.MatchGlobalPhase {
			d = linalg.PhaseDistance(e.u, k.u)
		} else {
			d = linalg.FrobeniusDistance(e.u, k.u) / float64(k.u.Rows)
		}
		if d < matchTol {
			return i
		}
	}
	return -1
}

// Get returns the pulse cached under k and whether it hit.
func (l *Library) Get(k Key) (*Pulse, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i := l.find(k); i >= 0 {
		return l.entries[k.s][i].p, true
	}
	return nil, false
}

// Put caches a pulse under k, keeping a copy of the unitary for hit
// verification. When a verified-equal entry exists, p replaces it only
// if it is preferred (the shorter pulse; see prefer), and is dropped
// otherwise.
func (l *Library) Put(k Key, p *Pulse) { _ = l.put(k, p) }

// put makes p the entry for k unless a verified-equal entry holds a
// pulse p is not preferred to, reporting whether the library changed.
func (l *Library) put(k Key, p *Pulse) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	chain := l.entries[k.s]
	i := l.find(k)
	if i >= 0 && !prefer(p, chain[i].p) {
		return false
	}
	e := &libEntry{u: k.u.Clone(), p: p}
	if i >= 0 {
		chain[i].replaced = true
		chain[i] = e
	} else {
		l.entries[k.s] = append(chain, e)
	}
	l.log = append(l.log, e)
	l.snap = nil
	return true
}

// prefer reports whether a should replace b as the entry for one
// unitary: the shorter pulse first, then the higher fidelity, then the
// fewer slots, then the amplitudes compared slot by slot and control
// by control, then the label. It reads only what a persisted record
// keeps (Qubits is not persisted), so a store that loads two records
// for one unitary warms the same entry whatever order they load in.
// Equal pulses do not replace, which keeps re-importing a no-op.
func prefer(a, b *Pulse) bool {
	if c := cmp.Compare(a.Duration, b.Duration); c != 0 {
		return c < 0
	}
	if c := cmp.Compare(a.Fidelity, b.Fidelity); c != 0 {
		return c > 0
	}
	if c := cmp.Compare(a.Slots, b.Slots); c != 0 {
		return c < 0
	}
	if c := slices.CompareFunc(a.Amps, b.Amps, slices.Compare[[]float64]); c != 0 {
		return c < 0
	}
	return a.Label < b.Label
}

// Lookup returns the cached pulse for a unitary and whether it hit.
func (l *Library) Lookup(u *linalg.Matrix) (*Pulse, bool) { return l.Get(l.Key(u)) }

// Peek reports whether a pulse is cached for a unitary.
func (l *Library) Peek(u *linalg.Matrix) bool {
	_, ok := l.Lookup(u)
	return ok
}

// Store caches a pulse under the unitary's key.
func (l *Library) Store(u *linalg.Matrix, p *Pulse) { l.Put(l.Key(u), p) }

// Entry is one exported library entry: the unitary and its pulse, as
// handed to the persistent store (internal/store) and the warm-start
// candidate snapshot in core.
type Entry struct {
	U *linalg.Matrix
	P *Pulse
}

// Export snapshots every entry, sorted by fingerprint key (collision
// chains keep insertion order; a replacing entry takes the replaced
// one's place). The deterministic order is load-bearing: the
// warm-start selector iterates it, and must behave identically at any
// worker count. The snapshot is built once per change to the library
// and shared by every caller until the next Put or Import changes it,
// so callers must treat the returned slice as read-only.
func (l *Library) Export() []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.snap == nil && len(l.log) > 0 {
		keys := make([]string, 0, len(l.entries))
		for k := range l.entries {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		snap := make([]Entry, 0, len(l.log))
		for _, k := range keys {
			for _, e := range l.entries[k] {
				snap = append(snap, Entry{U: e.u, P: e.p})
			}
		}
		l.snap = snap
	}
	return l.snap
}

// ExportSince returns the entries appended to the insertion log at or
// after position pos, in insertion order, and the log's end: the
// position to resume from. An entry replaced since it was logged is
// left out, since its replacement is logged after it.
func (l *Library) ExportSince(pos int) ([]Entry, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Entry
	for _, e := range l.log[pos:] {
		if !e.replaced {
			out = append(out, Entry{U: e.u, P: e.p})
		}
	}
	return out, len(l.log)
}

// Import stores a pulse under this library's own keying, as Put does,
// reporting whether it added or replaced an entry. Unlike Store it
// ignores nil arguments, and it re-keys the unitary under this
// library's keying scheme, so records persisted by a MatchGlobalPhase
// library import correctly into a non-matching one and vice versa.
func (l *Library) Import(u *linalg.Matrix, p *Pulse) bool {
	if u == nil || p == nil {
		return false
	}
	return l.put(l.Key(u), p)
}

// Len returns the number of cached entries.
func (l *Library) Len() int { return len(l.Export()) }
