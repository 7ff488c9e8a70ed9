package core

import (
	"fmt"
	"math"
	"strconv"

	"epoc/internal/linalg"
	"epoc/internal/pulse"
	"epoc/internal/qoc"
	"epoc/internal/store"
)

// StoreNamespace returns the persistent-store namespace key for a
// configuration: the codec version plus a sha256 over every knob that
// shapes stored artifacts. Two Options with the same namespace produce
// interchangeable pulses and syntheses; anything that would change
// them — the QOC mode, iteration count, seed, or the device physics —
// lands in a different namespace directory, which is the store's
// entire invalidation mechanism (DESIGN.md §12).
//
// Deliberately excluded: strategy and the library's global-phase
// matching (records are re-keyed on import, so flows share warm
// entries), worker count (the
// pipeline is worker-count invariant), partition/regroup limits (the
// store is keyed by unitary — which unitaries appear doesn't change
// what a record means), budgets (degraded results are never stored),
// and the device's qubit count (pulses are per-block, not per-chip, so
// a 5-qubit and a 50-qubit chain with the same physics share entries).
func StoreNamespace(opts Options) string {
	o := opts.withDefaults()
	return store.Namespace(storeConfig(&o))
}

// OpenStore opens (or creates) the store for opts under root. The
// caller owns the returned store: share it via Options.Store across
// compiles and Close it when done.
func OpenStore(root string, opts Options) (*store.Store, error) {
	o := opts.withDefaults()
	st, err := store.Open(root, store.Namespace(storeConfig(&o)))
	if err != nil {
		return nil, err
	}
	return st, nil
}

// storeConfig flattens the namespace-relevant knobs of a defaulted
// Options. Keep in sync with the StoreNamespace doc comment.
func storeConfig(o *Options) map[string]string {
	mode := "full"
	if o.Mode == QOCEstimate {
		mode = "estimate"
	}
	// GRAPE is the only optimizer, and the fidelity target, slot grid
	// and synthesis tuning are fixed, but their keys stay in the hash
	// as constants: dropping one would move every existing namespace
	// and strand the stores written under it (DESIGN.md §12). The
	// synth_* zeros select synth.Options' defaults.
	return map[string]string{
		"mode":               mode,
		"algorithm":          "grape",
		"fidelity_target":    fmt.Sprintf("%g", fidelityTarget),
		"grape_iters":        strconv.Itoa(o.GRAPEIters),
		"slot_step_2q":       strconv.Itoa(slotStep2Q),
		"seed":               strconv.FormatInt(o.Seed, 10),
		"synth_max_cnots":    "0",
		"synth_max_nodes":    "0",
		"synth_opt_budget":   "0",
		"synth_seed":         "0",
		"device_dt":          fmt.Sprintf("%g", o.Device.Dt),
		"device_drive_max":   fmt.Sprintf("%g", o.Device.DriveMax),
		"device_coupler_max": fmt.Sprintf("%g", o.Device.CouplerMax),
		"device_max_slots":   fmt.Sprintf("%d/%d/%d", o.Device.MaxSlots(1), o.Device.MaxSlots(2), o.Device.MaxSlots(3)),
	}
}

// attachStore checks the compile's store: a store whose namespace does
// not match this configuration is dropped for this compile — its
// records were produced under other knobs, and warming from them would
// be exactly the cache poisoning the namespace exists to prevent. It
// then warms the compile's caches from the store, which warms each
// library and cache once: on a shared store that already warmed them,
// this is two map lookups.
func attachStore(o *Options) {
	if o.Store != nil && o.Store.Namespace() != store.Namespace(storeConfig(o)) {
		o.Obs.Add("store/namespace_mismatch", 1)
		o.region.SetStr("store", "namespace_mismatch")
		o.Store = nil
	}
	if o.Store != nil {
		wp := o.Store.WarmLibrary(o.Library)
		ws := o.Store.WarmSynthCache(o.SynthCache)
		o.Obs.Add("store/warm/pulses", int64(wp))
		o.Obs.Add("store/warm/synth", int64(ws))
		o.region.SetInt("store_warm_pulses", int64(wp)).
			SetInt("store_warm_synth", int64(ws))
	}
}

// harvestStore persists what the compile learned: every library and
// cache entry added since the store's last harvest of them is staged
// and flushed. A flush failure never fails the compile — the result in
// hand is valid — it is counted and the entries stay staged for the
// next flush (or are lost with the process, which is the cold-start
// status quo).
func harvestStore(o *Options) {
	if o.Store == nil {
		return
	}
	hp := o.Store.HarvestLibrary(o.Library)
	hs := o.Store.HarvestSynthCache(o.SynthCache)
	o.Obs.Add("store/harvest/pulses", int64(hp))
	o.Obs.Add("store/harvest/synth", int64(hs))
	if err := o.Store.Flush(); err != nil {
		o.Obs.Add("store/flush_errors", 1)
		o.region.SetStr("store_flush_error", err.Error())
	}
}

// warmStartMaxDist bounds how far (in phase-invariant distance, range
// [0, √2]) a stored neighbour may be and still seed GRAPE. Beyond it a
// cold random start is the safer bet: a distant initialization can
// steer the optimizer into a worse basin than the one it finds from
// noise, breaking the warm ≥ cold convergence property the store
// promises.
const warmStartMaxDist = 0.75

// nearestWarm returns the index of the candidate closest to target
// under qoc.Similarity, considering only entries that carry raw
// amplitudes, have target's dimension and lie within maxDist, or -1
// when none qualifies. Ties keep the lowest index, so over the
// library's fixed export order the choice is deterministic, which
// byte-identical output at any worker count depends on.
func nearestWarm(cands []pulse.Entry, target *linalg.Matrix, maxDist float64) (idx int, dist float64) {
	idx, dist = -1, math.Inf(1)
	for i, e := range cands {
		if e.P == nil || e.P.Slots <= 0 || len(e.P.Amps) == 0 || e.U.Rows != target.Rows {
			continue
		}
		if d := qoc.Similarity(e.U, target); d < dist && d <= maxDist {
			idx, dist = i, d
		}
	}
	return idx, dist
}
