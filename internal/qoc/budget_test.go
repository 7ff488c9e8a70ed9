package qoc

import (
	"context"
	"errors"
	"testing"
	"time"

	"epoc/internal/faultclock"
	"epoc/internal/gate"
)

// TestGRAPEBudgetItersReturnsBestSoFar: an iteration budget below the
// convergence point stops the run with ErrBudget, and the Result still
// carries the best amplitudes and an actually-evaluated fidelity.
func TestGRAPEBudgetItersReturnsBestSoFar(t *testing.T) {
	m := StandardModel(1, ModelOptions{})
	full := GRAPE(m, gate.New(gate.X).Matrix(), 12, GRAPEConfig{MaxIter: 400})
	if full.Err != nil {
		t.Fatalf("unbudgeted run reported Err = %v", full.Err)
	}
	capped := GRAPE(m, gate.New(gate.X).Matrix(), 12, GRAPEConfig{MaxIter: 400, BudgetIters: 3})
	if !faultclock.IsBudget(capped.Err) {
		t.Fatalf("capped run Err = %v, want ErrBudget", capped.Err)
	}
	if capped.Iterations > 3 {
		t.Fatalf("capped run took %d iterations, budget was 3", capped.Iterations)
	}
	if capped.Amps == nil {
		t.Fatal("capped run returned no amplitudes")
	}
	if capped.Fidelity <= 0 {
		t.Fatalf("capped run fidelity %v was never evaluated", capped.Fidelity)
	}
	// The partial result must be honest: propagating its amps must
	// reproduce its reported fidelity.
	u := m.Propagate(capped.Amps)
	if f := Fidelity(u, gate.New(gate.X).Matrix()); f < capped.Fidelity-1e-9 {
		t.Fatalf("propagated fidelity %v < reported %v", f, capped.Fidelity)
	}
	if full.Fidelity < capped.Fidelity {
		t.Fatalf("more iterations made the result worse: %v vs %v", full.Fidelity, capped.Fidelity)
	}
}

// TestGRAPECancelAtExactIteration: a trip armed on the Kth iteration
// check cancels the run at exactly that iteration — no sleeps, no
// wall-clock races.
func TestGRAPECancelAtExactIteration(t *testing.T) {
	m := StandardModel(2, ModelOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inj := faultclock.NewInjector()
	const k = 5
	inj.TripAfter(faultclock.SiteGRAPEIter, k, cancel)
	res := GRAPE(m, gate.New(gate.CX).Matrix(), 40, GRAPEConfig{
		MaxIter: 400,
		Target:  1.1, // unreachable: only the cancel can stop the run early
		Gate:    &faultclock.Gate{Ctx: ctx, Inj: inj},
	})
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", res.Err)
	}
	if got := inj.Hits(faultclock.SiteGRAPEIter); got != k {
		t.Fatalf("run performed %d iteration checks, want exactly %d", got, k)
	}
}

// TestGRAPEDeadlineWithFakeClock: the deadline engages against the
// injected clock, tripped at a chosen iteration.
func TestGRAPEDeadlineWithFakeClock(t *testing.T) {
	m := StandardModel(2, ModelOptions{})
	fake := faultclock.NewFake()
	inj := faultclock.NewInjector()
	inj.TripAfter(faultclock.SiteGRAPEIter, 2, func() { fake.Advance(time.Hour) })
	res := GRAPE(m, gate.New(gate.CX).Matrix(), 40, GRAPEConfig{
		MaxIter: 400,
		Target:  1.1,
		Gate: &faultclock.Gate{
			Clock:    fake,
			Deadline: fake.Now().Add(time.Minute),
			Inj:      inj,
		},
	})
	if !faultclock.IsBudget(res.Err) {
		t.Fatalf("Err = %v, want ErrBudget", res.Err)
	}
	if res.Amps == nil || res.Fidelity <= 0 {
		t.Fatalf("deadline exit lost the best-so-far result: %+v", res)
	}
}

// TestSearchDurationPartialCarriesBestFidelity: when a probe stops on
// a budget, the search returns the best fidelity found so far — the
// satellite fix this PR makes to Runner/Result.
func TestSearchDurationPartialCarriesBestFidelity(t *testing.T) {
	probes := 0
	run := func(slots int) Result {
		probes++
		switch probes {
		case 1: // the maxSlots probe: passes the target
			return Result{Fidelity: 0.9995, Slots: slots, Duration: float64(slots)}
		default: // the first bisection probe: budget expires mid-run
			return Result{Fidelity: 0.41, Slots: slots, Duration: float64(slots), Err: faultclock.ErrBudget}
		}
	}
	res := SearchDuration(nil, 2, 64, 2, 0.999, run)
	if !faultclock.IsBudget(res.Err) {
		t.Fatalf("Err = %v, want ErrBudget", res.Err)
	}
	if res.Fidelity != 0.9995 {
		t.Fatalf("partial result fidelity %v, want the best-so-far 0.9995", res.Fidelity)
	}
	if res.Slots != 64 {
		t.Fatalf("partial result slots %d, want the passing maxSlots probe 64", res.Slots)
	}
	if probes != 2 {
		t.Fatalf("search kept probing after the budget: %d probes", probes)
	}
}

// TestSearchDurationPrefersShorterPassingProbe: among completed
// target-reaching probes the best-so-far is the shortest, so a late
// budget exit does not regress to the first (longest) probe.
func TestSearchDurationPrefersShorterPassingProbe(t *testing.T) {
	probes := 0
	run := func(slots int) Result {
		probes++
		r := Result{Slots: slots, Duration: float64(slots)}
		switch {
		case probes <= 2:
			r.Fidelity = 0.9999 // maxSlots and the midpoint both pass
		default:
			r.Fidelity = 0.2
			r.Err = faultclock.ErrBudget
		}
		return r
	}
	res := SearchDuration(nil, 2, 64, 2, 0.999, run)
	if !faultclock.IsBudget(res.Err) {
		t.Fatalf("Err = %v, want ErrBudget", res.Err)
	}
	if res.Slots >= 64 || res.Fidelity < 0.999 {
		t.Fatalf("best-so-far should be the shorter passing probe, got slots=%d fid=%v", res.Slots, res.Fidelity)
	}
}

// TestSearchDurationCanceledBeforeFirstProbe: an already-canceled gate
// stops the search before any optimizer work runs.
func TestSearchDurationCanceledBeforeFirstProbe(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	probes := 0
	res := SearchDuration(&faultclock.Gate{Ctx: ctx}, 2, 64, 2, 0.999, func(slots int) Result {
		probes++
		return Result{Fidelity: 1}
	})
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", res.Err)
	}
	if probes != 0 {
		t.Fatalf("canceled search still ran %d probes", probes)
	}
}

// TestSearchDurationUnbudgetedUnchanged: without a gate or errors the
// restructured search behaves exactly as before (smallest passing slot
// count, nil Err).
func TestSearchDurationUnbudgetedUnchanged(t *testing.T) {
	run := func(slots int) Result {
		fid := 0.5
		if slots >= 10 {
			fid = 1.0
		}
		return Result{Fidelity: fid, Slots: slots, Duration: float64(slots)}
	}
	res := SearchDuration(nil, 2, 64, 2, 0.999, run)
	if res.Err != nil {
		t.Fatalf("Err = %v, want nil", res.Err)
	}
	if res.Slots != 10 {
		t.Fatalf("found %d slots, want the smallest passing grid point 10", res.Slots)
	}
}
