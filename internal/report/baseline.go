package report

import (
	"encoding/json"
	"fmt"
	"sort"
)

// BenchArtifact is one BENCH_<suite>.json file: the machine-readable
// output of `epoc-bench -json` and the input of `epoc-bench -baseline`.
// It carries a manifest per circuit, keyed and sorted by circuit name,
// so two artifacts from the same suite and config compare positionally
// without heuristics.
type BenchArtifact struct {
	Version           int               `json:"version"`
	Suite             string            `json:"suite"`
	Strategy          string            `json:"strategy"`
	Config            map[string]string `json:"config,omitempty"`
	ConfigFingerprint string            `json:"config_fingerprint"`
	Circuits          []CircuitResult   `json:"circuits"`
}

// CircuitResult is one circuit's metrics inside a bench artifact.
type CircuitResult struct {
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics"`
}

// Sort orders the circuits by name; Encode calls it so artifact bytes
// are independent of run order.
func (a *BenchArtifact) Sort() {
	sort.Slice(a.Circuits, func(i, j int) bool { return a.Circuits[i].Name < a.Circuits[j].Name })
}

// EncodeArtifact renders a bench artifact as indented JSON with a
// trailing newline, circuits sorted by name.
func EncodeArtifact(a *BenchArtifact) ([]byte, error) {
	a.Sort()
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeArtifact parses a bench artifact, rejecting unknown versions.
func DecodeArtifact(data []byte) (*BenchArtifact, error) {
	var a BenchArtifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("report: invalid bench artifact: %w", err)
	}
	if a.Version != ManifestVersion {
		return nil, fmt.Errorf("report: bench artifact version %d, this build reads %d", a.Version, ManifestVersion)
	}
	return &a, nil
}

// BenchGatePolicy is the regression gate's metric policy, in the
// -fail-on grammar (ParseFailOn) that epoc-bench -baseline and
// epoc-stats share. The pipeline is deterministic at any worker count,
// so result metrics (latency, fidelity, counts) gate at zero slack:
// any movement in the worse direction is a real behaviour change and
// must come with a deliberate baseline update. qoc_probes and
// grape_iters are the full-mode suites' stage-5 work counts,
// deterministic because GRAPE is seeded and the duration search is.
//
// qoc_time_ns is wall clock, but it is the store-warm gate's success
// metric: a warm run serves every pulse from the store, so stage 5
// collapses to library lookups. The absolute slack absorbs machine
// noise; a warm run that re-enters GRAPE blows past it by an order of
// magnitude. Wall-clock compile_time_ns is machine-dependent and has
// no rule, so it is informational only.
const BenchGatePolicy = "latency_ns=0,fidelity=0,pulses=0,blocks=0,vugs=0,cnots=0," +
	"synth_fallbacks=0,qoc_runs=0,warm_starts=0,degraded=0," +
	"qoc_probes=0,grape_iters=0,qoc_time_ns=2.5e8"

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
