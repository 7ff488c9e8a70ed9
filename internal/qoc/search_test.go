package qoc

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"epoc/internal/faultclock"
)

// thresholdRunner is a synthetic optimizer whose probes reach the
// target exactly at slot counts ≥ need. It records the probe sequence.
func thresholdRunner(need int, probes *[]int) Runner {
	return func(slots int) Result {
		*probes = append(*probes, slots)
		fid := 0.5
		if slots >= need {
			fid = 0.9999
		}
		return Result{Fidelity: fid, Slots: slots, Duration: float64(slots)}
	}
}

// fullRangeReference is the full-range search as it stood before the
// start point existed: probe maxSlots, then bisect the whole grid. It
// pins SearchDuration's probe sequence for unbudgeted runs.
func fullRangeReference(minSlots, maxSlots, step int, target float64, run Runner) Result {
	var grid []int
	for s := minSlots; s < maxSlots; s += step {
		grid = append(grid, s)
	}
	grid = append(grid, maxSlots)
	cache := map[int]Result{}
	memo := func(slots int) Result {
		if r, ok := cache[slots]; ok {
			return r
		}
		r := run(slots)
		cache[slots] = r
		return r
	}
	lo, hi := 0, len(grid)-1
	if r := memo(grid[hi]); r.Fidelity < target {
		return r
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if memo(grid[mid]).Fidelity >= target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return memo(grid[lo])
}

// TestSearchDurationFromFeasibleStartStaysBelow: when the start point
// reaches the target, no probe is longer than it and the answer is the
// full-range answer.
func TestSearchDurationFromFeasibleStartStaysBelow(t *testing.T) {
	for _, need := range []int{2, 9, 22, 50, 58} {
		var probes, ref []int
		res := SearchDurationFrom(nil, 2, 56, 320, 8, 0.999, thresholdRunner(need, &probes))
		want := fullRangeReference(2, 320, 8, 0.999, thresholdRunner(need, &ref))
		if probes[0] != 58 {
			t.Fatalf("need %d: first probe %d, want start 56 snapped up to the grid point 58", need, probes[0])
		}
		for _, s := range probes {
			if s > 58 {
				t.Fatalf("need %d: probed %d slots above the feasible start (probes %v)", need, s, probes)
			}
		}
		if res.Slots != want.Slots || res.Err != nil {
			t.Fatalf("need %d: found %d slots (err %v), full range finds %d", need, res.Slots, res.Err, want.Slots)
		}
		if len(probes) >= len(ref) {
			t.Fatalf("need %d: %d probes, full range needs only %d", need, len(probes), len(ref))
		}
	}
}

// TestSearchDurationFromInfeasibleStartBisectsAbove: a start point
// that misses is followed by the maxSlots probe, and the bisection
// then stays strictly above the start.
func TestSearchDurationFromInfeasibleStartBisectsAbove(t *testing.T) {
	for _, need := range []int{59, 66, 130, 313, 320} {
		var probes, ref []int
		res := SearchDurationFrom(nil, 2, 56, 320, 8, 0.999, thresholdRunner(need, &probes))
		want := fullRangeReference(2, 320, 8, 0.999, thresholdRunner(need, &ref))
		if len(probes) < 2 || probes[0] != 58 || probes[1] != 320 {
			t.Fatalf("need %d: probes %v, want 58 then 320 first", need, probes)
		}
		for _, s := range probes[1:] {
			if s <= 58 {
				t.Fatalf("need %d: bisection probed %d ≤ the failed start 58 (probes %v)", need, s, probes)
			}
		}
		if res.Slots != want.Slots || res.Fidelity < 0.999 {
			t.Fatalf("need %d: found %d slots at fidelity %v, full range finds %d", need, res.Slots, res.Fidelity, want.Slots)
		}
	}

	// Neither the start nor maxSlots reaches the target: the maxSlots
	// result is reported after exactly those two probes.
	var probes []int
	res := SearchDurationFrom(nil, 2, 56, 320, 8, 0.999, thresholdRunner(1000, &probes))
	if !reflect.DeepEqual(probes, []int{58, 320}) || res.Slots != 320 || res.Fidelity >= 0.999 {
		t.Fatalf("infeasible block: probes %v, result %d slots fid %v; want [58 320] and the 320-slot miss", probes, res.Slots, res.Fidelity)
	}
}

// TestSearchDurationFromMaxStartIsFullRange: a start at or above
// maxSlots records the full-range search's exact probe sequence, and
// SearchDuration is that case.
func TestSearchDurationFromMaxStartIsFullRange(t *testing.T) {
	var pinned []int
	SearchDuration(nil, 2, 64, 2, 0.999, thresholdRunner(10, &pinned))
	if want := []int{64, 32, 16, 8, 12, 10}; !reflect.DeepEqual(pinned, want) {
		t.Fatalf("SearchDuration probes %v, want %v", pinned, want)
	}
	grids := []struct{ min, max, step int }{{2, 64, 2}, {2, 40, 2}, {2, 320, 8}, {2, 480, 16}, {3, 17, 5}}
	for _, g := range grids {
		for need := g.min; need <= g.max+1; need++ {
			var ref []int
			want := fullRangeReference(g.min, g.max, g.step, 0.999, thresholdRunner(need, &ref))
			for _, start := range []int{g.max, g.max + 1, 10 * g.max} {
				var probes []int
				res := SearchDurationFrom(nil, g.min, start, g.max, g.step, 0.999, thresholdRunner(need, &probes))
				if !reflect.DeepEqual(probes, ref) || res.Slots != want.Slots {
					t.Fatalf("grid %v need %d start %d: probes %v → %d slots, full range %v → %d",
						g, need, start, probes, res.Slots, ref, want.Slots)
				}
			}
		}
	}
}

// TestSearchDurationFromClampsLowStart: a start below minSlots probes
// minSlots first.
func TestSearchDurationFromClampsLowStart(t *testing.T) {
	for _, start := range []int{-5, 0, 1, 2} {
		var probes []int
		res := SearchDurationFrom(nil, 2, start, 64, 2, 0.999, thresholdRunner(2, &probes))
		if !reflect.DeepEqual(probes, []int{2}) || res.Slots != 2 {
			t.Fatalf("start %d: probes %v, result %d slots; want the single probe [2]", start, probes, res.Slots)
		}
	}
	var probes []int
	res := SearchDurationFrom(nil, 2, 0, 64, 2, 0.999, thresholdRunner(10, &probes))
	if probes[0] != 2 || probes[1] != 64 || res.Slots != 10 {
		t.Fatalf("probes %v, result %d slots; want 2, then 64, ending at 10", probes, res.Slots)
	}
}

// TestSearchDurationFromBestSoFar: the early-exit contract holds from
// any start — the canceled gate runs no probe, a budget stop returns
// the best completed probe, and a canceled probe is never the result.
func TestSearchDurationFromBestSoFar(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n := 0
	res := SearchDurationFrom(&faultclock.Gate{Ctx: ctx}, 2, 56, 320, 8, 0.999, func(int) Result {
		n++
		return Result{Fidelity: 1}
	})
	if !errors.Is(res.Err, context.Canceled) || n != 0 {
		t.Fatalf("canceled gate: Err %v after %d probes, want context.Canceled and none", res.Err, n)
	}

	// The start probe passes; the first bisection probe hits the budget.
	var probes []int
	res = SearchDurationFrom(nil, 2, 56, 320, 8, 0.999, func(slots int) Result {
		probes = append(probes, slots)
		if len(probes) == 1 {
			return Result{Fidelity: 0.9995, Slots: slots}
		}
		return Result{Fidelity: 0.3, Slots: slots, Err: faultclock.ErrBudget}
	})
	if !faultclock.IsBudget(res.Err) || res.Slots != 58 || res.Fidelity != 0.9995 || len(probes) != 2 {
		t.Fatalf("budget after a passing start: slots %d fid %v err %v probes %v; want the 58-slot start with ErrBudget",
			res.Slots, res.Fidelity, res.Err, probes)
	}

	// The start misses; the maxSlots probe is budget-degraded but
	// passes, so it beats the start's miss.
	probes = nil
	res = SearchDurationFrom(nil, 2, 56, 320, 8, 0.999, func(slots int) Result {
		probes = append(probes, slots)
		if slots == 320 {
			return Result{Fidelity: 0.9992, Slots: slots, Err: faultclock.ErrBudget}
		}
		return Result{Fidelity: 0.9, Slots: slots}
	})
	if !faultclock.IsBudget(res.Err) || res.Slots != 320 || !reflect.DeepEqual(probes, []int{58, 320}) {
		t.Fatalf("budget at maxSlots: slots %d err %v probes %v; want the passing 320-slot probe with ErrBudget",
			res.Slots, res.Err, probes)
	}

	// The start misses and the maxSlots probe is canceled: the canceled
	// probe is discarded, the start's miss stands as best-so-far.
	res = SearchDurationFrom(nil, 2, 56, 320, 8, 0.999, func(slots int) Result {
		if slots == 320 {
			return Result{Fidelity: 1, Slots: slots, Err: context.Canceled}
		}
		return Result{Fidelity: 0.9, Slots: slots}
	})
	if !errors.Is(res.Err, context.Canceled) || res.Slots != 58 || res.Fidelity != 0.9 {
		t.Fatalf("canceled maxSlots probe: slots %d fid %v err %v; want the 58-slot miss with context.Canceled",
			res.Slots, res.Fidelity, res.Err)
	}
}
