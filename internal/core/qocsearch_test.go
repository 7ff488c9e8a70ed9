package core

import (
	"math"
	"testing"

	"epoc/internal/benchcirc"
	"epoc/internal/hardware"
	"epoc/internal/obs"
	"epoc/internal/pulse"
	"epoc/internal/qoc"
)

// TestEstimatorStartMatchesFullRange: for every distinct block of qft
// and qaoa, the pulse the pipeline's estimator-started duration search
// produced is bit for bit the full-range search's result (slots,
// duration, fidelity, every amplitude), and the pipeline got there
// with fewer probes.
func TestEstimatorStartMatchesFullRange(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every block's full-range GRAPE search")
	}
	for _, name := range []string{"qft", "qaoa"} {
		c, err := benchcirc.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		rec := obs.New()
		o := Options{
			Strategy: EPOC,
			Device:   hardware.LinearChain(c.NumQubits),
			Mode:     QOCFull,
			Library:  pulse.NewLibrary(true),
			Obs:      rec,
		}
		if _, err := Compile(c, o); err != nil {
			t.Fatal(err)
		}
		d := o.withDefaults()
		cfg := qoc.GRAPEConfig{MaxIter: d.GRAPEIters, Target: fidelityTarget, Seed: d.Seed}
		entries := d.Library.Export()
		fullProbes := 0
		for i, e := range entries {
			k := log2(e.U.Rows)
			model := d.Device.BlockModel(k)
			full := qoc.SearchDuration(nil, 2, d.Device.MaxSlots(k), slotStep(k), fidelityTarget, func(slots int) qoc.Result {
				fullProbes++
				return qoc.GRAPE(model, e.U, slots, cfg)
			})
			p := e.P
			if p.Slots != full.Slots ||
				math.Float64bits(p.Duration) != math.Float64bits(full.Duration) ||
				math.Float64bits(p.Fidelity) != math.Float64bits(full.Fidelity) {
				t.Fatalf("%s block %d (%dq): pipeline %d slots %v ns fid %v, full range %d slots %v ns fid %v",
					name, i, k, p.Slots, p.Duration, p.Fidelity, full.Slots, full.Duration, full.Fidelity)
			}
			if len(p.Amps) != len(full.Amps) {
				t.Fatalf("%s block %d: %d amplitude rows, full range %d", name, i, len(p.Amps), len(full.Amps))
			}
			for s := range p.Amps {
				for j := range p.Amps[s] {
					if math.Float64bits(p.Amps[s][j]) != math.Float64bits(full.Amps[s][j]) {
						t.Fatalf("%s block %d: amplitude [%d][%d] %v, full range %v", name, i, s, j, p.Amps[s][j], full.Amps[s][j])
					}
				}
			}
		}
		probes := rec.Snapshot().Timers["qoc/duration_probe"].Count
		if len(entries) == 0 || probes >= int64(fullProbes) {
			t.Fatalf("%s: %d blocks; pipeline ran %d probes, full range %d", name, len(entries), probes, fullProbes)
		}
		t.Logf("%s: %d distinct blocks, %d probes (full range %d)", name, len(entries), probes, fullProbes)
	}
}
