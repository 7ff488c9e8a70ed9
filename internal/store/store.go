package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"weak"

	"epoc/internal/linalg"
	"epoc/internal/pulse"
	"epoc/internal/report"
	"epoc/internal/synth"
)

// Namespace derives a store namespace key from a flattened config map
// of every knob that shapes stored artifacts (hardware-model physics,
// QOC and synthesis tuning — see core.StoreNamespace for the canonical
// set). It reuses the manifest's config-fingerprint machinery so the
// store, the run manifests, and the bench gate all agree on what "same
// config" means. The codec version is folded in, so a format bump
// lands in a fresh directory instead of misreading old records.
func Namespace(config map[string]string) string {
	m := &report.Manifest{Strategy: "store", Config: config}
	return fmt.Sprintf("v%d-%.16s", CodecVersion, m.Fingerprint())
}

// Counters is a snapshot of a store's accounting.
type Counters struct {
	PulseLoaded int64 // pulse records decoded at Open
	SynthLoaded int64 // synth records decoded at Open
	Corrupt     int64 // files skipped at Open: truncated, bit-flipped, wrong version, not a record

	WarmPulses int64 // entries imported into a pulse.Library by WarmLibrary
	WarmSynth  int64 // entries imported into a synth.Cache by WarmSynthCache

	PulseHarvested int64 // new pulse records staged by HarvestLibrary
	SynthHarvested int64 // new synth records staged by HarvestSynthCache
	Skipped        int64 // cache entries a Harvest could not encode (never an error: they just stay in-memory)
	Flushed        int64 // records written to disk over the store's lifetime
}

// Store is one opened namespace directory: the records loaded from it,
// plus records harvested from in-memory caches and not yet flushed.
// All methods are goroutine-safe. On-disk safety comes from three
// layers: records are content-addressed (concurrent writers of the
// same entry write identical bytes to the same name), writes go to a
// temp file renamed into place (a reader never sees a half-written
// record), and Flush holds an advisory flock on the directory (two
// processes flushing concurrently serialize instead of interleaving).
type Store struct {
	root string
	ns   string
	dir  string

	mu       sync.Mutex
	pulses   []*Record         // loaded pulse records, name-sorted (Warm* order)
	synths   []*Record         // loaded synth records, name-sorted
	pending  map[string][]byte // staged records: filename -> framed bytes
	onDisk   map[string]bool   // filenames known to exist with valid content
	counters Counters

	// harvested holds the library and cache entries, by unitary, whose
	// records are already staged or on disk, so a repeat harvest skips
	// them without encoding. Entries are never evicted or mutated once
	// exported, so the unitary's identity is a stable key. Weak keys
	// keep the set from pinning the matrices of discarded libraries;
	// such a stale key costs only its map slot.
	harvested map[weak.Pointer[linalg.Matrix]]bool
	closed    bool
}

// Open loads (or creates) the namespace directory under root. Corrupt
// or foreign files are counted and skipped — Open never fails because
// of what a record contains, only on I/O errors reaching the directory
// itself.
func Open(root, namespace string) (*Store, error) {
	if root == "" || namespace == "" {
		return nil, fmt.Errorf("store: root and namespace are required")
	}
	dir := filepath.Join(root, namespace)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		root:      root,
		ns:        namespace,
		dir:       dir,
		pending:   map[string][]byte{},
		onDisk:    map[string]bool{},
		harvested: map[weak.Pointer[linalg.Matrix]]bool{},
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".rec") {
			continue // lock file, temp files from a crashed writer, strangers
		}
		names = append(names, e.Name())
	}
	sort.Strings(names) // deterministic load (and Warm*) order
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			s.counters.Corrupt++
			continue
		}
		rec, err := DecodeRecord(data)
		if err != nil {
			s.counters.Corrupt++
			continue
		}
		s.onDisk[name] = true
		switch rec.Kind {
		case KindPulse:
			s.pulses = append(s.pulses, rec)
			s.counters.PulseLoaded++
		case KindSynth:
			s.synths = append(s.synths, rec)
			s.counters.SynthLoaded++
		}
	}
	return s, nil
}

// Dir returns the namespace directory this store reads and writes.
func (s *Store) Dir() string { return s.dir }

// Namespace returns the namespace key the store was opened under.
func (s *Store) Namespace() string { return s.ns }

// Len returns the number of records loaded at Open.
func (s *Store) Len() (pulses, synths int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pulses), len(s.synths)
}

// Counters snapshots the store's accounting.
func (s *Store) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters
}

// WarmLibrary imports every loaded pulse record into l, returning how
// many were added (records already present — by the library's own
// verified matching — are skipped, so warming is idempotent).
func (s *Store) WarmLibrary(l *pulse.Library) int {
	if s == nil || l == nil {
		return 0
	}
	s.mu.Lock()
	recs := s.pulses
	s.mu.Unlock()
	added := 0
	for _, r := range recs {
		if l.Import(r.U, r.Pulse) {
			added++
		}
	}
	s.mu.Lock()
	s.counters.WarmPulses += int64(added)
	s.mu.Unlock()
	return added
}

// WarmSynthCache imports every loaded synth record into c.
func (s *Store) WarmSynthCache(c *synth.Cache) int {
	if s == nil || c == nil {
		return 0
	}
	s.mu.Lock()
	recs := s.synths
	s.mu.Unlock()
	added := 0
	for _, r := range recs {
		if c.Import(r.U, r.Circ, r.Ok) {
			added++
		}
	}
	s.mu.Lock()
	s.counters.WarmSynth += int64(added)
	s.mu.Unlock()
	return added
}

// HarvestLibrary stages every library entry not already persisted,
// returning how many new records were staged. Entries the codec cannot
// represent are counted Skipped and left in memory only.
func (s *Store) HarvestLibrary(l *pulse.Library) int {
	if s == nil || l == nil {
		return 0
	}
	entries := l.Export()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0
	}
	staged := 0
	for _, e := range entries {
		if s.stageLocked(e.U, func() (string, []byte, error) { return EncodePulseRecord(e.U, e.P) }) {
			staged++
		}
	}
	s.counters.PulseHarvested += int64(staged)
	return staged
}

// HarvestSynthCache stages every completed synthesis-cache entry not
// already persisted.
func (s *Store) HarvestSynthCache(c *synth.Cache) int {
	if s == nil || c == nil {
		return 0
	}
	entries := c.Export()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0
	}
	staged := 0
	for _, e := range entries {
		if s.stageLocked(e.U, func() (string, []byte, error) { return EncodeSynthRecord(e.U, e.Circ, e.Ok) }) {
			staged++
		}
	}
	s.counters.SynthHarvested += int64(staged)
	return staged
}

// stageLocked stages the record of one harvested entry unless it is
// already staged or on disk, reporting whether it was staged. An entry
// seen by an earlier harvest is skipped before encoding: encoding and
// hashing every entry on every harvest would make each compile's
// harvest grow with the store. The caller must hold s.mu.
func (s *Store) stageLocked(u *linalg.Matrix, encode func() (string, []byte, error)) bool {
	key := weak.Make(u)
	if s.harvested[key] {
		return false
	}
	name, data, err := encode()
	if err != nil {
		s.counters.Skipped++
		return false
	}
	s.harvested[key] = true
	if s.onDisk[name] || s.pending[name] != nil {
		return false
	}
	s.pending[name] = data
	return true
}

// Flush writes every staged record to disk: temp file, then an atomic
// rename into the content-addressed name. Callers invoke it after each
// compile (the incremental flush — content addressing makes re-flushing
// an unchanged cache a no-op) and via Close. An advisory flock on the
// namespace directory serializes flushes from concurrent processes.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

// flushLocked does the staged-record write-out. The caller must hold
// s.mu.
func (s *Store) flushLocked() error {
	if s.closed {
		return fmt.Errorf("store: flush on closed store")
	}
	if len(s.pending) == 0 {
		return nil
	}
	unlock, err := lockDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: lock %s: %w", s.dir, err)
	}
	defer unlock()
	names := make([]string, 0, len(s.pending))
	for name := range s.pending {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := writeAtomic(s.dir, name, s.pending[name]); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		s.onDisk[name] = true
		delete(s.pending, name)
		s.counters.Flushed++
	}
	return nil
}

// writeAtomic lands data under dir/name via a temp file and rename, so
// a crash mid-write leaves a ".tmp-" stray (ignored by Open) and never
// a half-written record.
func writeAtomic(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, ".tmp-"+name)
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Close flushes staged records and marks the store closed; further
// flushes error and further harvests are dropped. Close is idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.flushLocked()
	s.closed = true
	return err
}
