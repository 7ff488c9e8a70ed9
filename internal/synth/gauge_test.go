package synth

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"epoc/internal/gate"
	"epoc/internal/linalg"
)

// gaugeParams draws template parameters that exercise the gauge push:
// each U3 is random, a pure phase P(φ) = U3(0,φ,0), the identity, or an
// identity written as U3(0,φ,-φ).
func gaugeParams(rng *rand.Rand, np int) []float64 {
	x := randomParams(rng, np)
	for i := 0; i < np; i += 3 {
		phi := rng.Float64()*2*math.Pi - math.Pi
		switch rng.Intn(4) {
		case 1:
			x[i], x[i+1], x[i+2] = 0, phi, 0
		case 2:
			x[i], x[i+1], x[i+2] = 0, 0, 0
		case 3:
			x[i], x[i+1], x[i+2] = 0, phi, -phi
		}
	}
	return x
}

// countAbove counts the U3s of x whose HS cost from the identity is at
// least tol.
func countAbove(x []float64, tol float64) int {
	n := 0
	for i := 0; i < len(x); i += 3 {
		if u3Cost(x[i], x[i+1], x[i+2]) >= tol {
			n++
		}
	}
	return n
}

// TestGaugePushPreservesUnitary checks that the push leaves the
// template's unitary unchanged, global phase included, to 1e-12 per
// entry.
func TestGaugePushPreservesUnitary(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pushed := 0
	for trial := 0; trial < 200; trial++ {
		tmpl := randomTemplate(rng, 2+trial%2, trial%15)
		x := gaugeParams(rng, tmpl.paramCount())
		y := tmpl.gaugePush(x)
		for i := range x {
			// Exact comparison on purpose: it counts the parameters the push rewrote.
			if x[i] != y[i] {
				pushed++
			}
		}
		a, b := denseBuild(tmpl, x), denseBuild(tmpl, y)
		for i := range a.Data {
			if d := cmplx.Abs(a.Data[i] - b.Data[i]); d > 1e-12 {
				t.Fatalf("%v: entry %d moved by %.3g", tmpl.placements, i, d)
			}
		}
	}
	if pushed < 100 {
		t.Fatalf("the push rewrote %d parameters, want >= 100", pushed)
	}
}

// TestGaugePushNeverAddsVUG checks that the push never turns a drop
// candidate into a U3 that must be emitted, and that toCircuit, on a
// target the raw parameters reach exactly, emits no more VUGs than
// the U3s of the raw parameters that are not identity up to phase.
func TestGaugePushNeverAddsVUG(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	fewer := 0
	for trial := 0; trial < 200; trial++ {
		n := 2 + trial%2
		tmpl := randomTemplate(rng, n, trial%15)
		x := gaugeParams(rng, tmpl.paramCount())
		raw := countAbove(x, instantiateTol)
		if got := countAbove(tmpl.gaugePush(x), instantiateTol); got > raw {
			t.Fatalf("%v: %d U3s above the drop threshold after the push, %d before", tmpl.placements, got, raw)
		}
		ev := newEvaluator(denseBuild(tmpl, x), n, len(tmpl.placements))
		c, dist := tmpl.toCircuit(ev, x)
		if dist >= instantiateTol {
			t.Fatalf("%v: emitted circuit at distance %.3g", tmpl.placements, dist)
		}
		vugs := c.CountKind(gate.U3)
		if vugs > raw {
			t.Fatalf("%v: %d VUGs emitted, %d U3s of the raw parameters are not the identity", tmpl.placements, vugs, raw)
		}
		if vugs < raw {
			fewer++
		}
	}
	if fewer == 0 {
		t.Fatal("the push removed no VUG on any template")
	}
}

// TestToCircuitKeepsDropsUnderTolerance plants near-identity U3s whose
// HS costs are each below instantiateTol but add up past it: toCircuit
// must keep enough of them to stay under instantiateTol, and report
// the emitted circuit's own distance.
func TestToCircuitKeepsDropsUnderTolerance(t *testing.T) {
	tmpl := &template{n: 2, placements: []placement{{0, 1}, {0, 1}}}
	x := make([]float64, tmpl.paramCount())
	// U3(θ,0,0) with θ = 2.6e-5 costs θ²/8 ≈ 8.5e-11 from the identity.
	// The three U3s on qubit 0 rotate about the same axis, so dropping
	// them all would cost several times that.
	for _, u := range []int{0, 2, 4} {
		x[3*u] = 2.6e-5
	}
	x[3*1], x[3*1+1], x[3*1+2] = 1.1, 0.4, -0.3
	x[3*3], x[3*3+1], x[3*3+2] = 0.7, -1.2, 0.5
	x[3*5], x[3*5+1], x[3*5+2] = -0.9, 0.2, 1.3
	if got := countAbove(x, instantiateTol); got != 3 {
		t.Fatalf("%d U3s above the drop threshold, want 3", got)
	}
	target := denseBuild(tmpl, x)
	c, dist := tmpl.toCircuit(newEvaluator(target, 2, 2), x)
	if dist >= instantiateTol {
		t.Fatalf("emitted circuit at distance %.3g, want < %g", dist, instantiateTol)
	}
	if got := c.CountKind(gate.U3); got == 3 {
		t.Fatalf("all three near-identity U3s dropped at distance %.3g", dist)
	}
	want := 1 - cmplx.Abs(linalg.HSInner(c.Unitary(), target))/4
	if math.Abs(dist-want) > 1e-15 {
		t.Fatalf("reported distance %.6g, emitted circuit's %.6g", dist, want)
	}
}
