package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"epoc/internal/benchcirc"
	"epoc/internal/faultclock"
	"epoc/internal/hardware"
	"epoc/internal/linalg"
	"epoc/internal/obs"
	"epoc/internal/pulse"
	"epoc/internal/qasm"
)

// TestDegradedCompileEquivalence is the property test for graceful
// degradation: a budget-starved compile must still lower the input to
// an equivalent circuit — same unitary up to global phase, same
// density evolution of |0…0⟩ — because every degraded block falls
// back to its own gate realization, never to a wrong one. Reuses the
// end-to-end equivalence harness.
func TestDegradedCompileEquivalence(t *testing.T) {
	cases := []struct {
		n, depth int
		seed     int64
	}{
		{3, 8, 1},
		{4, 10, 2},
		{4, 12, 5},
	}
	degraded := 0
	for _, tc := range cases {
		c := benchcirc.RandomCircuit(tc.n, tc.depth, tc.seed)
		want := c.Unitary()
		wantRho := densityOf(c)
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("n%d-seed%d-w%d", tc.n, tc.seed, workers)
			t.Run(name, func(t *testing.T) {
				res, err := Compile(c, Options{
					Strategy: EPOC,
					Device:   hardware.LinearChain(tc.n),
					Mode:     QOCEstimate,
					Workers:  workers,
					// A single-node synthesis budget: only blocks whose
					// root template already fits survive; the rest
					// degrade to their gate realization.
					Budgets: Budgets{SynthNodes: 1},
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Degraded {
					degraded++
					if res.Stats.SynthDegraded == 0 {
						t.Fatalf("Degraded set but SynthDegraded = 0: %+v", res.Stats)
					}
				}
				got := res.Lowered.Unitary()
				if d := linalg.PhaseDistance(want, got); d > equivTol {
					t.Fatalf("degraded lowering diverged: phase distance %g", d)
				}
				if d := linalg.FrobeniusDistance(wantRho, densityOf(res.Lowered)); d > equivTol {
					t.Fatalf("degraded density evolution diverged: Frobenius distance %g", d)
				}
			})
		}
	}
	if degraded == 0 {
		t.Fatal("no case degraded under a 1-node synthesis budget; the property was never exercised")
	}
}

// TestDegradedMidSynthesisStillEquivalent: the ISSUE's acceptance
// scenario — a time budget that expires mid-synthesis (fake clock
// advanced by a trip at the nth expansion) yields Degraded = true and
// a schedule-backing circuit equivalent to the input.
func TestDegradedMidSynthesisStillEquivalent(t *testing.T) {
	c := benchcirc.RandomCircuit(4, 10, 3)
	want := c.Unitary()
	fake := faultclock.NewFake()
	inj := faultclock.NewInjector()
	inj.TripAfter(faultclock.SiteQSearchExpand, 2, func() { fake.Advance(time.Hour) })
	res, err := Compile(c, Options{
		Strategy: EPOC,
		Device:   hardware.LinearChain(4),
		Mode:     QOCEstimate,
		Clock:    fake,
		Inject:   inj,
		Budgets:  Budgets{SynthTime: time.Minute},
	})
	if err != nil {
		t.Fatalf("mid-synthesis budget expiry must degrade, not fail: %v", err)
	}
	if !res.Degraded {
		t.Fatal("mid-synthesis budget expiry did not mark the result degraded")
	}
	found := false
	for _, r := range res.DegradeReasons {
		if r == "synth" {
			found = true
		}
	}
	if !found {
		t.Fatalf("DegradeReasons %v missing \"synth\"", res.DegradeReasons)
	}
	if d := linalg.PhaseDistance(want, res.Lowered.Unitary()); d > equivTol {
		t.Fatalf("degraded lowering diverged: phase distance %g", d)
	}
}

// TestDeterminismUnderBudgets extends the worker-count determinism
// contract to the degraded path: with deterministic per-unit budgets
// (and no wall-clock deadline), Workers: 1 and Workers: 8 must agree
// byte for byte on the schedule, the Stats, the lowered QASM, and the
// degradation reasons.
func TestDeterminismUnderBudgets(t *testing.T) {
	c, _ := benchcirc.Get("qaoa")
	dev := hardware.LinearChain(c.NumQubits)
	compile := func(workers int) *Result {
		t.Helper()
		res, err := Compile(c, Options{
			Strategy: EPOC,
			Device:   dev,
			Workers:  workers,
			Budgets:  Budgets{SynthNodes: 1, QOCIters: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := compile(1)
	par := compile(8)
	if !seq.Degraded || !par.Degraded {
		t.Fatalf("budgeted compiles not degraded: w1=%v w8=%v", seq.Degraded, par.Degraded)
	}
	if !reflect.DeepEqual(seq.DegradeReasons, par.DegradeReasons) {
		t.Fatalf("worker count changed degrade reasons: %v vs %v", seq.DegradeReasons, par.DegradeReasons)
	}
	if !reflect.DeepEqual(seq.Stats, par.Stats) {
		t.Fatalf("worker count changed Stats under budgets:\n  1: %+v\n  8: %+v", seq.Stats, par.Stats)
	}
	seqJSON, err := json.Marshal(seq.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	parJSON, err := json.Marshal(par.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqJSON, parJSON) {
		t.Fatal("worker count changed the degraded schedule")
	}
	seqQASM, err := qasm.Write(seq.Lowered)
	if err != nil {
		t.Fatal(err)
	}
	parQASM, err := qasm.Write(par.Lowered)
	if err != nil {
		t.Fatal(err)
	}
	if seqQASM != parQASM {
		t.Fatal("worker count changed the degraded lowered circuit")
	}
}

// TestDeterminismUnderFakeDeadline: a deadline already expired on a
// fake clock degrades every budget-checked site identically at any
// worker count — the fake clock never advances, so the expiry is a
// pure function of the configuration, not of scheduling.
func TestDeterminismUnderFakeDeadline(t *testing.T) {
	c, _ := benchcirc.Get("qaoa")
	dev := hardware.LinearChain(c.NumQubits)
	compile := func(workers int) *Result {
		t.Helper()
		fake := faultclock.NewFake()
		fake.Advance(time.Hour) // past any deadline derived below
		res, err := Compile(c, Options{
			Strategy: EPOC,
			Device:   dev,
			Workers:  workers,
			Clock:    &preExpired{fake},
			Budgets:  Budgets{Total: time.Minute},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := compile(1)
	par := compile(8)
	if !seq.Degraded {
		t.Fatal("expired deadline did not degrade")
	}
	if !reflect.DeepEqual(seq.DegradeReasons, par.DegradeReasons) {
		t.Fatalf("worker count changed degrade reasons: %v vs %v", seq.DegradeReasons, par.DegradeReasons)
	}
	if !reflect.DeepEqual(seq.Stats, par.Stats) {
		t.Fatalf("worker count changed Stats under an expired deadline:\n  1: %+v\n  8: %+v", seq.Stats, par.Stats)
	}
	seqJSON, _ := json.Marshal(seq.Schedule)
	parJSON, _ := json.Marshal(par.Schedule)
	if !bytes.Equal(seqJSON, parJSON) {
		t.Fatal("worker count changed the schedule under an expired deadline")
	}
}

// preExpired wraps a fake clock so the deadline computed at compile
// start (now + budget) is already in the past by the first check: Now
// jumps forward an hour after the first read.
type preExpired struct{ fake *faultclock.Fake }

func (p *preExpired) Now() time.Time {
	t := p.fake.Now()
	p.fake.Advance(2 * time.Hour)
	return t
}

// TestBudgetedQOCObsMatchesStats: under a QOC budget each distinct
// missing unitary runs one duration search, so the qoc/pulse timer,
// Stats.QOCRuns and Stats.LibraryMisses agree, and obs counts each
// degraded and each warm-started pulse once, as Stats does, at any
// worker count and for both the pool and the AccQOC MST runner.
func TestBudgetedQOCObsMatchesStats(t *testing.T) {
	c := benchcirc.RandomCircuit(3, 8, 1)
	dev := hardware.LinearChain(c.NumQubits)
	warm := true
	for _, strat := range []Strategy{EPOC, AccQOC} {
		for _, workers := range []int{1, 4} {
			// Clean pulses of another circuit give the EPOC misses
			// neighbours to warm-start from; AccQOC warm-starts along
			// its MST instead.
			lib := pulse.NewLibrary(strat == EPOC)
			if _, err := Compile(benchcirc.RandomCircuit(3, 8, 2), Options{Strategy: strat, Device: dev, Library: lib}); err != nil {
				t.Fatal(err)
			}
			rec := obs.New()
			res, err := Compile(c, Options{
				Strategy:  strat,
				Device:    dev,
				Workers:   workers,
				Library:   lib,
				WarmStart: &warm,
				Obs:       rec,
				Budgets:   Budgets{QOCIters: 3},
			})
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			if st.QOCDegraded == 0 || (strat == EPOC && st.WarmStarts == 0) {
				t.Fatalf("%s workers %d: want degraded and warm-started pulses, got %+v", strat, workers, st)
			}
			snap := rec.Snapshot()
			if got := snap.Timers["qoc/pulse"].Count; got != int64(st.QOCRuns) || st.QOCRuns != st.LibraryMisses {
				t.Errorf("%s workers %d: qoc/pulse spans %d, Stats.QOCRuns %d, Stats.LibraryMisses %d; want all equal",
					strat, workers, got, st.QOCRuns, st.LibraryMisses)
			}
			if got := snap.Counters["qoc/degraded"]; got != int64(st.QOCDegraded) {
				t.Errorf("%s workers %d: obs qoc/degraded %d, Stats.QOCDegraded %d", strat, workers, got, st.QOCDegraded)
			}
			if got := snap.Counters["qoc/warmstart"]; got != int64(st.WarmStarts) {
				t.Errorf("%s workers %d: obs qoc/warmstart %d, Stats.WarmStarts %d", strat, workers, got, st.WarmStarts)
			}
		}
	}
}
