package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"weak"

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
	Skipped        int64 // entries a Harvest could not encode, each counted once (never an error: they just stay in-memory)
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

	// libs and caches record, per library and cache, whether this
	// store has warmed it and how far into its insertion log it has
	// harvested.
	libs   tracker[pulse.Library]
	caches tracker[synth.Cache]
	closed bool
}

// progress is a store's work on one library or cache: whether the
// store warmed it, and the insertion-log position its next harvest
// starts from.
type progress struct {
	warmed bool
	pos    int
}

// tracker maps libraries or caches, by identity, to a store's progress
// on each. Weak keys keep it from pinning discarded libraries; the
// dead keys are swept out each time the map has doubled since the last
// sweep, so a caller that warms a fresh library per compile does not
// grow it without bound.
type tracker[T any] struct {
	m     map[weak.Pointer[T]]*progress
	sweep int // map size that triggers the next sweep
}

// of returns the progress on x, starting it if x is new.
func (t *tracker[T]) of(x *T) *progress {
	k := weak.Make(x)
	if pr := t.m[k]; pr != nil {
		return pr
	}
	if t.m == nil {
		t.m = map[weak.Pointer[T]]*progress{}
	}
	if len(t.m) >= t.sweep {
		for k := range t.m {
			if k.Value() == nil {
				delete(t.m, k)
			}
		}
		t.sweep = max(16, 2*len(t.m))
	}
	pr := &progress{}
	t.m[k] = pr
	return pr
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
		root:    root,
		ns:      namespace,
		dir:     dir,
		pending: map[string][]byte{},
		onDisk:  map[string]bool{},
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
// many entries it added or replaced (Library.Import). A store warms a
// library once: its loaded records never change after Open and a
// library never drops an entry, so a repeat warm of the same library
// would import nothing, and it returns 0 without looking.
func (s *Store) WarmLibrary(l *pulse.Library) int {
	if s == nil || l == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	pr := s.libs.of(l)
	if pr.warmed {
		return 0
	}
	pr.warmed = true
	unharvested, start := l.ExportSince(pr.pos)
	added := 0
	for _, r := range s.pulses {
		if l.Import(r.U, r.Pulse) {
			added++
		}
	}
	_, end := l.ExportSince(start)
	pr.pos = warmedPos(pr.pos, len(unharvested), start, end, added)
	s.counters.WarmPulses += int64(added)
	return added
}

// WarmSynthCache imports every loaded synth record into c, once per
// cache, as WarmLibrary does for a library.
func (s *Store) WarmSynthCache(c *synth.Cache) int {
	if s == nil || c == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	pr := s.caches.of(c)
	if pr.warmed {
		return 0
	}
	pr.warmed = true
	unharvested, start := c.ExportSince(pr.pos)
	added := 0
	for _, r := range s.synths {
		if c.Import(r.U, r.Circ, r.Ok) {
			added++
		}
	}
	_, end := c.ExportSince(start)
	pr.pos = warmedPos(pr.pos, len(unharvested), start, end, added)
	s.counters.WarmSynth += int64(added)
	return added
}

// warmedPos returns where the harvest of a just-warmed library or cache
// starts. What the warm imported came from this store's disk, so the
// harvest may skip it, but only when nothing before it is unharvested
// and the log grew by exactly the imports (no concurrent compile
// logged an entry between them). Otherwise the harvest keeps its
// position and encodes the imported entries once, finding their
// records on disk.
func warmedPos(pos, unharvested, start, end, added int) int {
	if unharvested == 0 && end-start == added {
		return end
	}
	return pos
}

// HarvestLibrary stages the library entries logged since this store's
// last harvest of l, returning how many new records were staged. An
// entry the codec cannot represent is counted Skipped, once, and stays
// in memory only: the harvest position moves past it, so it is never
// encoded again.
func (s *Store) HarvestLibrary(l *pulse.Library) int {
	if s == nil || l == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0
	}
	pr := s.libs.of(l)
	entries, end := l.ExportSince(pr.pos)
	pr.pos = end
	staged := 0
	for _, e := range entries {
		if s.stageLocked(EncodePulseRecord(e.U, e.P)) {
			staged++
		}
	}
	s.counters.PulseHarvested += int64(staged)
	return staged
}

// HarvestSynthCache stages the synthesis-cache entries completed since
// this store's last harvest of c, as HarvestLibrary does.
func (s *Store) HarvestSynthCache(c *synth.Cache) int {
	if s == nil || c == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0
	}
	pr := s.caches.of(c)
	entries, end := c.ExportSince(pr.pos)
	pr.pos = end
	staged := 0
	for _, e := range entries {
		if s.stageLocked(EncodeSynthRecord(e.U, e.Circ, e.Ok)) {
			staged++
		}
	}
	s.counters.SynthHarvested += int64(staged)
	return staged
}

// stageLocked stages one encoded record unless it is already staged or
// on disk, reporting whether it was staged; an encoding error counts
// Skipped. The caller must hold s.mu.
func (s *Store) stageLocked(name string, data []byte, err error) bool {
	if err != nil {
		s.counters.Skipped++
		return false
	}
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
