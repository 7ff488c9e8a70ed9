// Package faultclock makes the pipeline's cancellation and budget
// machinery deterministic and testable. It provides three small
// pieces, all nil-safe so production code threads them unconditionally
// at near-zero cost:
//
//   - Clock: an injectable time source. Production uses Real() (a
//     direct time.Now passthrough); tests use a Fake they advance by
//     hand, so time-budget expiry happens at an exact loop iteration
//     instead of after a flaky wall-clock sleep.
//   - Injector: named trip points ("cancel after N QSearch
//     expansions", "expire the budget at GRAPE iteration K"). Every
//     budget-checked loop announces its site; a test arms an action to
//     fire on exactly the nth announcement. A nil Injector is a single
//     nil check per announcement.
//   - Gate: the per-stage check evaluated at loop granularity. It
//     combines a context (cancellation — partial work is discarded), a
//     deadline against the injected clock (budget — best-so-far
//     results are kept and the compile degrades), and the injector.
//
// The split between the two error classes is the contract the whole
// pipeline is built on: Check returns the context's error verbatim
// when canceled, and ErrBudget when only the deadline has passed.
// Callers abort on the former and degrade gracefully on the latter.
package faultclock

import (
	"context"
	"errors"
	"sync"
	"time"
)

// ErrBudget reports that a time or iteration budget was exhausted.
// Loops that observe it stop and return their best-so-far result; the
// pipeline marks the compilation degraded rather than failed.
var ErrBudget = errors.New("faultclock: budget exhausted")

// Clock is an injectable time source. Implementations must be
// goroutine-safe.
type Clock interface {
	Now() time.Time
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// Real returns the production clock: a direct time.Now passthrough.
func Real() Clock { return realClock{} }

// Fake is a manually advanced clock for deterministic tests. The zero
// value starts at the zero time; NewFake picks an arbitrary non-zero
// epoch so zero-valued deadlines stay distinguishable.
type Fake struct {
	mu sync.Mutex
	t  time.Time
}

// NewFake returns a fake clock starting at a fixed non-zero instant.
func NewFake() *Fake {
	return &Fake{t: time.Unix(1_000_000, 0)}
}

// Now returns the fake's current instant.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

// Advance moves the fake clock forward by d.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(d)
}

// Site names one injectable trip point: a loop iteration or stage
// boundary where the pipeline announces progress to the Injector and
// evaluates its Gate.
type Site string

// The pipeline's trip points. Stage sites fire once per compilation at
// the stage boundary; loop sites fire once per iteration.
const (
	SiteStageZX        Site = "stage/zx"
	SiteStageRoute     Site = "stage/route"
	SiteStagePartition Site = "stage/partition"
	SiteStageSynth     Site = "stage/synth"
	SiteStageRegroup   Site = "stage/regroup"
	SiteStageQOC       Site = "stage/qoc"
	SiteStageLower     Site = "stage/lower" // gate-based flow
	SiteQSearchExpand  Site = "qsearch/expand"
	SiteGRAPEIter      Site = "grape/iter"
	SiteDurationProbe  Site = "duration/probe"
	SiteCacheWait      Site = "cache/wait"
)

// Sites lists every trip point in a stable order (useful for
// table-driven conformance tests).
func Sites() []Site {
	return []Site{
		SiteStageZX, SiteStageRoute, SiteStagePartition, SiteStageSynth,
		SiteStageRegroup, SiteStageQOC, SiteStageLower,
		SiteQSearchExpand, SiteGRAPEIter, SiteDurationProbe, SiteCacheWait,
	}
}

// Injector arms deterministic fault actions on trip points. All
// methods are goroutine-safe and nil-safe; a nil *Injector is the
// production configuration and costs one nil check per announcement.
type Injector struct {
	mu    sync.Mutex
	hits  map[Site]int
	trips map[Site][]*trip
}

type trip struct {
	at int // fire when the site's hit count reaches this value
	fn func()
}

// NewInjector returns an empty injector.
func NewInjector() *Injector {
	return &Injector{hits: map[Site]int{}, trips: map[Site][]*trip{}}
}

// TripAfter arms fn to run synchronously on the nth (1-based) Hit of
// site. Multiple trips may be armed on one site; each fires at most
// once. n < 1 is treated as 1.
func (i *Injector) TripAfter(site Site, n int, fn func()) {
	if n < 1 {
		n = 1
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.trips[site] = append(i.trips[site], &trip{at: n, fn: fn})
}

// Hit announces one pass through site, firing any trip armed for that
// count. The armed action runs synchronously inside Hit, before the
// caller evaluates its gate — so "cancel at the nth expansion" is
// observed by that very expansion's check.
func (i *Injector) Hit(site Site) {
	if i == nil {
		return
	}
	var fire []func()
	i.mu.Lock()
	i.hits[site]++
	n := i.hits[site]
	kept := i.trips[site][:0]
	for _, t := range i.trips[site] {
		if t.at == n {
			fire = append(fire, t.fn)
		} else {
			kept = append(kept, t)
		}
	}
	i.trips[site] = kept
	i.mu.Unlock()
	for _, fn := range fire {
		fn()
	}
}

// Hits reports how many times site has been announced.
func (i *Injector) Hits(site Site) int {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.hits[site]
}

// Gate is the cancellation/budget check threaded through every
// expensive loop. The zero value and nil are both inert (Check always
// passes); production compiles carry a Gate with just Ctx set, and the
// deadline field only engages when a budget is configured — the real
// clock is never read otherwise.
type Gate struct {
	Ctx      context.Context
	Clock    Clock     // nil means Real()
	Deadline time.Time // zero means no deadline
	Inj      *Injector // nil means no trip points
}

// Check announces site to the injector, then evaluates cancellation
// and the deadline. It returns the context's error when canceled,
// ErrBudget when the deadline has passed, and nil otherwise. Armed
// trips fire before the evaluation, so an action that cancels the
// context or advances a fake clock is observed by this same call.
func (g *Gate) Check(site Site) error {
	if g == nil {
		return nil
	}
	g.Inj.Hit(site)
	if g.Ctx != nil {
		if err := g.Ctx.Err(); err != nil {
			return err
		}
	}
	if !g.Deadline.IsZero() {
		clock := g.Clock
		if clock == nil {
			clock = Real()
		}
		if clock.Now().After(g.Deadline) {
			return ErrBudget
		}
	}
	return nil
}

// Done exposes the context's cancellation channel for select-based
// waits; nil (block forever) when no context is attached.
func (g *Gate) Done() <-chan struct{} {
	if g == nil || g.Ctx == nil {
		return nil
	}
	return g.Ctx.Done()
}

// Err returns the context's error, if any.
func (g *Gate) Err() error {
	if g == nil || g.Ctx == nil {
		return nil
	}
	return g.Ctx.Err()
}

// IsBudget reports whether err is a budget exhaustion (degrade) rather
// than a cancellation (abort).
func IsBudget(err error) bool { return errors.Is(err, ErrBudget) }
