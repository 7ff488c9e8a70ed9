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

// Threshold says how much a metric may move against a baseline before
// the comparison counts it as a regression. The limit is
//
//	baseline ± (|baseline|·RelTol + AbsTol)
//
// in the metric's worse direction (above for lower-is-better metrics,
// below for HigherIsBetter ones). Informational metrics are reported
// but never gate — machine-dependent measurements like wall-clock
// compile time belong there.
type Threshold struct {
	RelTol         float64 `json:"rel_tol"`
	AbsTol         float64 `json:"abs_tol"`
	HigherIsBetter bool    `json:"higher_is_better"`
	Informational  bool    `json:"informational"`
}

// DefaultThresholds is the regression gate's metric policy. The
// pipeline is deterministic at any worker count, so result metrics
// (latency, fidelity, counts) gate with only float-noise slack — any
// larger movement is a real behaviour change and must come with a
// deliberate baseline update. Wall-clock compile time is
// machine-dependent and therefore informational only.
func DefaultThresholds() map[string]Threshold {
	return map[string]Threshold{
		"latency_ns":      {RelTol: 1e-9, AbsTol: 1e-9},
		"fidelity":        {AbsTol: 1e-9, HigherIsBetter: true},
		"pulses":          {},
		"blocks":          {},
		"vugs":            {},
		"cnots":           {},
		"synth_fallbacks": {},
		"qoc_runs":        {},
		"warm_starts":     {},
		"degraded":        {},
		// Full-mode suites only: stage-5 work counts, deterministic
		// because GRAPE is seeded and the duration search is.
		"qoc_probes":      {},
		"grape_iters":     {},
		"compile_time_ns": {Informational: true},
		// qoc_time_ns is wall clock, but unlike whole-compile time it is
		// the store-warm gate's success metric: a warm run serves every
		// pulse from the store, so stage 5 collapses to library lookups.
		// The absolute slack absorbs machine noise; a warm run that
		// re-enters GRAPE blows past it by an order of magnitude.
		"qoc_time_ns": {AbsTol: 2.5e8},
	}
}

// Regression is one metric that moved past its threshold.
type Regression struct {
	Circuit  string  `json:"circuit"`
	Metric   string  `json:"metric"`
	Baseline float64 `json:"baseline"`
	Current  float64 `json:"current"`
	Limit    float64 `json:"limit"`
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %s regressed: baseline %g, current %g (limit %g)",
		r.Circuit, r.Metric, r.Baseline, r.Current, r.Limit)
}

// CompareBaseline checks current against baseline under the given
// thresholds (nil means DefaultThresholds) and returns every
// regression, sorted by (circuit, metric). It returns an error — not a
// regression list — when the two artifacts are not comparable: a
// different suite, a different config fingerprint, or a circuit
// present in the baseline but missing from the current run (coverage
// loss must fail the gate, not slip through). Metrics without a
// threshold entry, and metrics new since the baseline, are
// informational.
func CompareBaseline(baseline, current *BenchArtifact, thresholds map[string]Threshold) ([]Regression, error) {
	if baseline.Suite != current.Suite {
		return nil, fmt.Errorf("report: baseline suite %q, current %q", baseline.Suite, current.Suite)
	}
	if baseline.ConfigFingerprint != current.ConfigFingerprint {
		return nil, fmt.Errorf("report: config fingerprint changed (baseline %.12s…, current %.12s…): refresh the baseline deliberately",
			baseline.ConfigFingerprint, current.ConfigFingerprint)
	}
	if thresholds == nil {
		thresholds = DefaultThresholds()
	}
	cur := map[string]map[string]float64{}
	for _, c := range current.Circuits {
		cur[c.Name] = c.Metrics
	}
	var regs []Regression
	for _, base := range baseline.Circuits {
		metrics, ok := cur[base.Name]
		if !ok {
			return nil, fmt.Errorf("report: circuit %q in baseline but missing from current run", base.Name)
		}
		for metric, bv := range base.Metrics {
			th, gated := thresholds[metric]
			if !gated || th.Informational {
				continue
			}
			cv, ok := metrics[metric]
			if !ok {
				regs = append(regs, Regression{Circuit: base.Name, Metric: metric, Baseline: bv, Current: cv, Limit: bv})
				continue
			}
			slack := abs(bv)*th.RelTol + th.AbsTol
			if th.HigherIsBetter {
				if limit := bv - slack; cv < limit {
					regs = append(regs, Regression{Circuit: base.Name, Metric: metric, Baseline: bv, Current: cv, Limit: limit})
				}
			} else if limit := bv + slack; cv > limit {
				regs = append(regs, Regression{Circuit: base.Name, Metric: metric, Baseline: bv, Current: cv, Limit: limit})
			}
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].Circuit != regs[j].Circuit {
			return regs[i].Circuit < regs[j].Circuit
		}
		return regs[i].Metric < regs[j].Metric
	})
	return regs, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
