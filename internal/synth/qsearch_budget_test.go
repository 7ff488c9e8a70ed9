package synth

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"epoc/internal/faultclock"
	"epoc/internal/linalg"
)

// TestQSearchBudgetNodes: a node budget below what the target needs
// stops the search deterministically with ErrBudget and the
// best-so-far circuit.
func TestQSearchBudgetNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	u := linalg.RandomUnitary(4, rng)
	full := QSearch(u, Options{Seed: 3})
	if full.Err != nil {
		t.Fatalf("unbudgeted search Err = %v", full.Err)
	}
	capped := QSearch(u, Options{Seed: 3, BudgetNodes: 1})
	if !faultclock.IsBudget(capped.Err) {
		t.Fatalf("capped search Err = %v, want ErrBudget", capped.Err)
	}
	if capped.Nodes != 1 {
		t.Fatalf("capped search expanded %d nodes, budget was 1", capped.Nodes)
	}
	if capped.Circuit == nil {
		t.Fatal("capped search returned no best-so-far circuit")
	}
	if capped.Distance < full.Distance {
		t.Fatal("one node beat the full search; budget semantics are off")
	}
}

// TestQSearchCancelAtExactExpansion: a trip armed on the kth expansion
// check cancels the search at exactly that check.
func TestQSearchCancelAtExactExpansion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	u := linalg.RandomUnitary(4, rng)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inj := faultclock.NewInjector()
	const k = 3
	inj.TripAfter(faultclock.SiteQSearchExpand, k, cancel)
	res := QSearch(u, Options{Seed: 3, Gate: &faultclock.Gate{Ctx: ctx, Inj: inj}})
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", res.Err)
	}
	if got := inj.Hits(faultclock.SiteQSearchExpand); got != k {
		t.Fatalf("search made %d expansion checks, want exactly %d", got, k)
	}
}

// TestSynthesizeBlockBudgetFallsBack: under a starved budget
// SynthesizeOutcome reports ok = false with ErrBudget, on which the
// pipeline keeps the block's gate realization and counts it degraded
// (core's TestDegradedCompileEquivalence); a cancellation reports the
// context's error and no circuit.
func TestSynthesizeBlockBudgetFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	u := linalg.RandomUnitary(4, rng)

	fake := faultclock.NewFake()
	expired := &faultclock.Gate{Clock: fake, Deadline: fake.Now().Add(-1)}
	_, ok, err := SynthesizeOutcome(u, Options{Seed: 9, Gate: expired})
	if !faultclock.IsBudget(err) {
		t.Fatalf("budget-starved block err = %v, want ErrBudget", err)
	}
	if ok {
		t.Fatal("budget-starved block reported ok")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	circ, ok, err := SynthesizeOutcome(u, Options{Seed: 9, Gate: &faultclock.Gate{Ctx: ctx}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled block err = %v, want context.Canceled", err)
	}
	if ok || circ != nil {
		t.Fatal("canceled block must report no circuit")
	}
}
