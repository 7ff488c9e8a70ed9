package core

import (
	"fmt"
	"strconv"

	"epoc/internal/linalg"
	"epoc/internal/store"
)

// StoreNamespace returns the persistent-store namespace key for a
// configuration: the codec version plus a sha256 over every knob that
// shapes stored artifacts. Two Options with the same namespace produce
// interchangeable pulses and syntheses; anything that would change
// them — the QOC mode or algorithm, fidelity target, iteration count,
// seed, slot grid, synthesis tuning, or the device physics — lands in
// a different namespace directory, which is the store's entire
// invalidation mechanism (DESIGN.md §12).
//
// Deliberately excluded: strategy and MatchGlobalPhase (records are
// re-keyed on import, so flows share warm entries), worker count (the
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
	alg := "grape"
	if o.Algorithm == AlgCRAB {
		alg = "crab"
	}
	return map[string]string{
		"mode":               mode,
		"algorithm":          alg,
		"fidelity_target":    fmt.Sprintf("%g", o.FidelityTarget),
		"grape_iters":        strconv.Itoa(o.GRAPEIters),
		"slot_step_2q":       strconv.Itoa(o.SlotStep2Q),
		"seed":               strconv.FormatInt(o.Seed, 10),
		"synth_max_cnots":    strconv.Itoa(o.Synth.MaxCNOTs),
		"synth_max_nodes":    strconv.Itoa(o.Synth.MaxNodes),
		"synth_opt_budget":   strconv.Itoa(o.Synth.OptBudget),
		"synth_seed":         strconv.FormatInt(o.Synth.Seed, 10),
		"device_dt":          fmt.Sprintf("%g", o.Device.Dt),
		"device_drive_max":   fmt.Sprintf("%g", o.Device.DriveMax),
		"device_coupler_max": fmt.Sprintf("%g", o.Device.CouplerMax),
		"device_max_slots":   fmt.Sprintf("%d/%d/%d", o.Device.MaxSlots(1), o.Device.MaxSlots(2), o.Device.MaxSlots(3)),
	}
}

// attachStore resolves the compile's store: Options.Store when its
// namespace matches this configuration, else a store opened from
// StorePath (owned by this compile and closed by detachStore). A
// shared store whose namespace does not match is dropped for this
// compile — its records were produced under other knobs, and warming
// from them would be exactly the cache poisoning the namespace exists
// to prevent.
func attachStore(o *Options) (owned *store.Store, err error) {
	ns := store.Namespace(storeConfig(o))
	if o.Store != nil && o.Store.Namespace() != ns {
		o.Obs.Add("store/namespace_mismatch", 1)
		o.region.SetStr("store", "namespace_mismatch")
		o.Store = nil
	}
	if o.Store == nil && o.StorePath != "" {
		st, err := store.Open(o.StorePath, ns)
		if err != nil {
			return nil, err
		}
		o.Store = st
		owned = st
	}
	if o.Store != nil {
		wp := o.Store.WarmLibrary(o.Library)
		ws := o.Store.WarmSynthCache(o.SynthCache)
		o.Obs.Add("store/warm/pulses", int64(wp))
		o.Obs.Add("store/warm/synth", int64(ws))
		o.region.SetInt("store_warm_pulses", int64(wp)).
			SetInt("store_warm_synth", int64(ws))
	}
	return owned, nil
}

// harvestStore persists what the compile learned: every new library
// and cache entry is staged and flushed. A flush failure never fails
// the compile — the result in hand is valid — it is counted and the
// entries stay staged for the next flush (or are lost with the
// process, which is the cold-start status quo).
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

// snapshotWarmCands freezes the warm-start candidate set at stage-5
// entry: the library's exported entries that carry raw amplitudes.
// The snapshot — not the live library — is what every pulse consults,
// so concurrent prefill workers storing new pulses cannot change a
// later pulse's warm choice and the output stays byte-identical at any
// worker count.
func snapshotWarmCands(o *Options) {
	entries := o.Library.Export()
	if len(entries) == 0 {
		return
	}
	us := make([]*linalg.Matrix, len(entries))
	for i, e := range entries {
		if e.P != nil && e.P.Slots > 0 && len(e.P.Amps) > 0 {
			us[i] = e.U
		}
	}
	o.warmCands = entries
	o.warmUs = us
}
