package qoc

import (
	"math"
	"math/rand"
	"testing"

	"epoc/internal/linalg/kernel"
)

func randSchedule(m *Model, slots int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	amps := makeGrid(slots, len(m.Controls))
	for k := range amps {
		for j := range amps[k] {
			amps[k][j] = (rng.Float64()*2 - 1) * m.MaxAmp[j] * 0.5
		}
	}
	return amps
}

// TestPropCacheRecomputesOnlyChangedSlices is the counting harness of
// the propagator-reuse contract: the stepRecomputes counter must grow
// by exactly the number of slices whose amplitudes changed bitwise.
func TestPropCacheRecomputesOnlyChangedSlices(t *testing.T) {
	m := StandardModel(2, ModelOptions{})
	const slots = 6
	amps := randSchedule(m, slots, 7)

	pc := newPropCache(m, slots, kernel.NewWorkspace())

	// Cold update: every slice computes once.
	pc.update(amps)
	if pc.stepRecomputes != slots {
		t.Fatalf("cold update recomputed %d slices, want %d", pc.stepRecomputes, slots)
	}

	// Identical schedule: nothing recomputes.
	pc.update(amps)
	if pc.stepRecomputes != slots {
		t.Fatalf("no-op update recomputed %d slices total, want %d", pc.stepRecomputes, slots)
	}

	// One changed slice: exactly one recompute.
	amps[3][0] += 1e-3
	pc.update(amps)
	if pc.stepRecomputes != slots+1 {
		t.Fatalf("single-slice update recomputed %d slices total, want %d", pc.stepRecomputes, slots+1)
	}

	// Two changed slices at the ends: exactly two recomputes, and the
	// full prefix/suffix chains rebuild without disturbing the count.
	amps[0][1] -= 2e-3
	amps[slots-1][2] += 3e-3
	pc.update(amps)
	if pc.stepRecomputes != slots+3 {
		t.Fatalf("two-slice update recomputed %d slices total, want %d", pc.stepRecomputes, slots+3)
	}
}

// TestPropCacheMatchesNaivePropagation pins the reuse soundness rule:
// after any mix of cold, partial, and no-op updates, the cached total
// unitary is byte-identical to a from-scratch Model.Propagate. It also
// pins that the optimizer and Propagate share one slice propagator,
// which is what lets Propagate serve as the pulse oracle.
func TestPropCacheMatchesNaivePropagation(t *testing.T) {
	m := StandardModel(2, ModelOptions{})
	const slots = 5
	amps := randSchedule(m, slots, 11)

	pc := newPropCache(m, slots, kernel.NewWorkspace())
	pc.update(amps)

	// Mutate a few slices across several updates, as Adam would.
	for round := 0; round < 4; round++ {
		for _, k := range []int{round % slots, (round * 2) % slots} {
			amps[k][round%len(amps[k])] += 1e-4 * float64(round+1)
		}
		got := pc.update(amps)
		want := m.Propagate(amps)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("round %d: cached U differs from Propagate at flat index %d: %v vs %v",
					round, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestPropCacheNaNNeverReused guards the bitwise comparison rule: a NaN
// amplitude compares unequal to itself, so a poisoned slice recomputes
// on every update instead of being wrongly treated as unchanged.
func TestPropCacheNaNNeverReused(t *testing.T) {
	m := StandardModel(1, ModelOptions{})
	const slots = 2
	amps := randSchedule(m, slots, 3)
	amps[1][0] = math.NaN()

	pc := newPropCache(m, slots, kernel.NewWorkspace())
	pc.update(amps)
	pc.update(amps)
	if pc.stepRecomputes != slots+1 {
		t.Fatalf("NaN slice recomputed %d times total, want %d (once per update)", pc.stepRecomputes, slots+1)
	}
}

// BenchmarkKernelGrapePropagator measures the cached forward pass under
// the access pattern the Adam ascent produces near convergence: a
// handful of slices change per iteration, the rest are saturated at the
// amplitude bound. The Naive twin is the uncached path, Model.Propagate
// (fresh slice steps and products for every slice, every call); the
// acceptance criterion is the cached loop at ≥2× the naive one.
func BenchmarkKernelGrapePropagator(b *testing.B) {
	m := StandardModel(2, ModelOptions{})
	const slots = 24
	amps := randSchedule(m, slots, 1)
	pc := newPropCache(m, slots, kernel.NewWorkspace())
	pc.update(amps)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Two changed slices per iteration, like a near-converged ascent.
		amps[i%slots][0] += 1e-6
		amps[(i+slots/2)%slots][1] -= 1e-6
		pc.update(amps)
	}
}

func BenchmarkKernelGrapePropagatorNaive(b *testing.B) {
	m := StandardModel(2, ModelOptions{})
	const slots = 24
	amps := randSchedule(m, slots, 1)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		amps[i%slots][0] += 1e-6
		amps[(i+slots/2)%slots][1] -= 1e-6
		m.Propagate(amps)
	}
}
