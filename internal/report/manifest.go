package report

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"epoc/internal/obs"
)

// ManifestVersion is the current run-manifest schema version; bump it
// when a field changes meaning so baseline comparisons can refuse
// incompatible files instead of misreading them.
const ManifestVersion = 1

// Manifest is the machine-readable record of one compilation run: the
// `epoc -report out.json` artifact, and the per-circuit payload inside
// `epoc-bench -json` BENCH files. It bundles the result metrics the
// regression gate compares, the full obs snapshot for after-the-fact
// analysis, and a fingerprint of the configuration so baselines from
// different configs are never compared silently. The snapshot's timers
// already aggregate every pipeline span by name, so the manifest
// carries no trace summary. Older manifests that still carry a "trace"
// field decode; the field is ignored.
type Manifest struct {
	Version  int    `json:"version"`
	Circuit  string `json:"circuit"`
	Strategy string `json:"strategy"`

	// Config is the flattened knob set that shaped this run (workers,
	// mode, budgets, …); ConfigFingerprint is its canonical sha256,
	// also covering Strategy. Comparing two manifests with different
	// fingerprints is a config change, not a regression.
	Config            map[string]string `json:"config,omitempty"`
	ConfigFingerprint string            `json:"config_fingerprint"`

	// Metrics holds the run's scalar outcomes keyed by metric name
	// (latency_ns, fidelity, compile_time_ns, pulses, …). Keeping them
	// in one flat map is what lets the baseline gate apply per-metric
	// thresholds generically.
	Metrics map[string]float64 `json:"metrics"`

	Degraded       bool     `json:"degraded,omitempty"`
	DegradeReasons []string `json:"degrade_reasons,omitempty"`

	Obs *obs.Snapshot `json:"obs,omitempty"`
}

// Fingerprint computes the canonical configuration hash: sha256 over
// the strategy and the sorted key=value config pairs. Call it after
// populating Strategy and Config; it also stores the result in
// ConfigFingerprint.
func (m *Manifest) Fingerprint() string {
	keys := make([]string, 0, len(m.Config))
	for k := range m.Config {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	fmt.Fprintf(h, "strategy=%s\n", m.Strategy)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, m.Config[k])
	}
	m.ConfigFingerprint = hex.EncodeToString(h.Sum(nil))
	return m.ConfigFingerprint
}

// EncodeManifest renders a manifest as indented JSON with a trailing
// newline; map keys are emitted sorted, so the bytes are deterministic.
func EncodeManifest(m *Manifest) ([]byte, error) {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeManifest parses a manifest, rejecting versions this build does
// not understand.
func DecodeManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("report: invalid manifest: %w", err)
	}
	if m.Version != ManifestVersion {
		return nil, fmt.Errorf("report: manifest version %d, this build reads %d", m.Version, ManifestVersion)
	}
	return &m, nil
}
