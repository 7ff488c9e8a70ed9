package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"epoc/internal/benchcirc"
	"epoc/internal/faultclock"
	"epoc/internal/hardware"
	"epoc/internal/pulse"
	"epoc/internal/synth"
)

// settleGoroutines spins (never sleeps) until the goroutine count is
// back at the baseline. All pipeline goroutines are joined before
// Compile returns, so only goroutines between their final send and
// actual exit can still be counted; yielding lets them finish.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	for i := 0; i < 1_000_000; i++ {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		runtime.Gosched()
	}
	t.Fatalf("goroutine leak: %d before compile, %d after settling",
		baseline, runtime.NumGoroutine())
}

// TestCompileCanceledBeforeStart: an already-canceled context returns
// promptly with the context's error, no result, and no goroutines.
func TestCompileCanceledBeforeStart(t *testing.T) {
	c, _ := benchcirc.Get("ghz")
	dev := hardware.LinearChain(c.NumQubits)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, strat := range Strategies() {
		baseline := runtime.NumGoroutine()
		res, err := CompileContext(ctx, c, Options{Strategy: strat, Device: dev})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", strat, err)
		}
		if res != nil {
			t.Fatalf("%s: canceled compile returned a result", strat)
		}
		settleGoroutines(t, baseline)
	}
}

// TestCancelAtEveryTripPoint is the cancellation conformance suite:
// for every injectable trip point a compile reaches, arm a cancel on
// that site's nth announcement and assert the compile aborts with the
// context's error, discards the partial result, and leaks nothing.
func TestCancelAtEveryTripPoint(t *testing.T) {
	cases := []struct {
		name string
		site faultclock.Site
		n    int // 1-based announcement to cancel at
		opts Options
	}{
		{"stage-zx", faultclock.SiteStageZX, 1, Options{Strategy: EPOC}},
		{"stage-route", faultclock.SiteStageRoute, 1, Options{Strategy: EPOC, Route: true}},
		{"stage-partition", faultclock.SiteStagePartition, 1, Options{Strategy: EPOC}},
		{"stage-synth", faultclock.SiteStageSynth, 1, Options{Strategy: EPOC}},
		{"stage-regroup", faultclock.SiteStageRegroup, 1, Options{Strategy: EPOC}},
		{"stage-qoc", faultclock.SiteStageQOC, 1, Options{Strategy: EPOC}},
		{"stage-lower", faultclock.SiteStageLower, 1, Options{Strategy: GateBased}},
		{"qsearch-expand", faultclock.SiteQSearchExpand, 2, Options{Strategy: EPOC, Mode: QOCEstimate}},
		{"qsearch-expand-parallel", faultclock.SiteQSearchExpand, 2, Options{Strategy: EPOC, Mode: QOCEstimate, Workers: 4}},
		{"grape-iter", faultclock.SiteGRAPEIter, 3, Options{Strategy: EPOC}},
		{"duration-probe", faultclock.SiteDurationProbe, 2, Options{Strategy: EPOC}},
		{"duration-probe-parallel", faultclock.SiteDurationProbe, 2, Options{Strategy: EPOC, Workers: 4}},
		{"grape-iter-accqoc", faultclock.SiteGRAPEIter, 2, Options{Strategy: AccQOC}},
	}
	// Every trip point has a row here, except cache/wait, which only a
	// concurrent synthesis-cache fill reaches (internal/synth's
	// cache_ctx_test.go cancels there).
	covered := map[faultclock.Site]bool{faultclock.SiteCacheWait: true}
	for _, tc := range cases {
		covered[tc.site] = true
	}
	for _, site := range faultclock.Sites() {
		if !covered[site] {
			t.Errorf("trip point %s has no cancellation row", site)
		}
		delete(covered, site)
	}
	for site := range covered {
		t.Errorf("row site %s is not in faultclock.Sites()", site)
	}
	c, _ := benchcirc.Get("ghz")
	dev := hardware.LinearChain(c.NumQubits)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			inj := faultclock.NewInjector()
			inj.TripAfter(tc.site, tc.n, cancel)
			opts := tc.opts
			opts.Device = dev
			opts.Inject = inj
			baseline := runtime.NumGoroutine()
			res, err := CompileContext(ctx, c, opts)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if res != nil {
				t.Fatal("canceled compile returned a partial result")
			}
			if got := inj.Hits(tc.site); got < tc.n {
				t.Fatalf("site %s announced %d times; trip at %d never armed",
					tc.site, got, tc.n)
			}
			settleGoroutines(t, baseline)
		})
	}
}

// TestCanceledFillDoesNotPoisonSharedCaches: a compile canceled inside
// synthesis must leave a shared synthesis cache and pulse library in a
// state where the next compile succeeds from scratch and matches an
// uncontaminated compile exactly.
func TestCanceledFillDoesNotPoisonSharedCaches(t *testing.T) {
	c, _ := benchcirc.Get("ghz")
	dev := hardware.LinearChain(c.NumQubits)
	clean, err := Compile(c, Options{Strategy: EPOC, Device: dev, Mode: QOCEstimate})
	if err != nil {
		t.Fatal(err)
	}

	shared := Options{Strategy: EPOC, Device: dev, Mode: QOCEstimate}
	shared.SynthCache = synth.NewCache()
	shared.Library = pulse.NewLibrary(true)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inj := faultclock.NewInjector()
	inj.TripAfter(faultclock.SiteQSearchExpand, 1, cancel)
	canceledOpts := shared
	canceledOpts.Inject = inj
	if _, err := CompileContext(ctx, c, canceledOpts); !errors.Is(err, context.Canceled) {
		t.Fatalf("poisoning compile: err = %v, want context.Canceled", err)
	}

	// The same shared cache/library must now serve a full compile that
	// is byte-for-byte the clean one.
	after, err := Compile(c, shared)
	if err != nil {
		t.Fatal(err)
	}
	if after.Degraded {
		t.Fatalf("compile after cancellation degraded: %v", after.DegradeReasons)
	}
	if after.Latency != clean.Latency || after.Fidelity != clean.Fidelity {
		t.Fatalf("canceled fill poisoned the caches: latency %v vs %v, fidelity %v vs %v",
			after.Latency, clean.Latency, after.Fidelity, clean.Fidelity)
	}
	if after.Stats.SynthFallback != clean.Stats.SynthFallback {
		t.Fatalf("fallback count changed after cancellation: %d vs %d",
			after.Stats.SynthFallback, clean.Stats.SynthFallback)
	}
}

// TestCompileBudgetExpiredDeadline: with a total deadline that a fake
// clock expires at the first stage boundary, the compile completes
// degraded — expendable stages skipped, synthesis falling back, QOC
// estimating — and the result is still a correct realization.
func TestCompileBudgetExpiredDeadline(t *testing.T) {
	c, _ := benchcirc.Get("ghz")
	dev := hardware.LinearChain(c.NumQubits)
	fake := faultclock.NewFake()
	inj := faultclock.NewInjector()
	inj.TripAfter(faultclock.SiteStageZX, 1, func() { fake.Advance(time.Hour) })
	res, err := Compile(c, Options{
		Strategy: EPOC,
		Device:   dev,
		Clock:    fake,
		Inject:   inj,
		Budgets:  Budgets{Total: time.Minute},
	})
	if err != nil {
		t.Fatalf("budget expiry must degrade, not fail: %v", err)
	}
	if !res.Degraded {
		t.Fatal("expired deadline did not mark the result degraded")
	}
	wantReasons := map[string]bool{"zx": true, "regroup": true, "synth": true, "qoc": true}
	for _, r := range res.DegradeReasons {
		if !wantReasons[r] {
			t.Fatalf("unexpected degrade reason %q in %v", r, res.DegradeReasons)
		}
	}
	if len(res.DegradeReasons) < 3 {
		t.Fatalf("expected zx/regroup + stage degradations, got %v", res.DegradeReasons)
	}
	if res.Schedule == nil || res.Stats.PulseCount == 0 {
		t.Fatal("degraded compile produced no schedule")
	}
	if res.Fidelity <= 0 || res.Fidelity > 1 {
		t.Fatalf("degraded fidelity out of range: %v", res.Fidelity)
	}
}

// TestCompileCancellationWinsOverBudget: when the context is canceled
// and the budget has also expired, the compile aborts with the context
// error — it must not return a degraded result the caller no longer
// wants.
func TestCompileCancellationWinsOverBudget(t *testing.T) {
	c, _ := benchcirc.Get("ghz")
	dev := hardware.LinearChain(c.NumQubits)
	fake := faultclock.NewFake()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inj := faultclock.NewInjector()
	inj.TripAfter(faultclock.SiteStageZX, 1, func() {
		fake.Advance(time.Hour)
		cancel()
	})
	res, err := CompileContext(ctx, c, Options{
		Strategy: EPOC,
		Device:   dev,
		Clock:    fake,
		Inject:   inj,
		Budgets:  Budgets{Total: time.Minute},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("canceled compile returned a result")
	}
}
