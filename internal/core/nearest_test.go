package core

import (
	"testing"

	"epoc/internal/gate"
	"epoc/internal/linalg"
	"epoc/internal/pulse"
)

// warmEntry is a library entry for u whose pulse carries raw
// amplitudes, so nearestWarm may pick it.
func warmEntry(u *linalg.Matrix) pulse.Entry {
	return pulse.Entry{U: u, P: &pulse.Pulse{Slots: 1, Amps: [][]float64{{0.1}}}}
}

func TestNearestDeterministicTieBreak(t *testing.T) {
	target := gate.New(gate.RX, 0.5).Matrix()
	near := gate.New(gate.RX, 0.52).Matrix()
	// Two identical candidates: the lowest index must win, every time.
	cands := []pulse.Entry{warmEntry(near), warmEntry(near.Clone())}
	idx, dist := nearestWarm(cands, target, 0.75)
	if idx != 0 {
		t.Fatalf("tie broke to index %d, want 0", idx)
	}
	if dist <= 0 || dist > 0.75 {
		t.Fatalf("distance %g out of range", dist)
	}
}

func TestNearestSkipsUnusableCandidates(t *testing.T) {
	target := gate.New(gate.RX, 0.5).Matrix()
	cands := []pulse.Entry{
		{U: target, P: &pulse.Pulse{Label: "rx"}}, // calibrated: no raw amplitudes
		{U: target},                           // no pulse at all
		warmEntry(gate.New(gate.CX).Matrix()), // wrong dimension
		warmEntry(gate.New(gate.RX, 3.0).Matrix()),
	}
	// RX(3.0) is far from RX(0.5): beyond maxDist nothing qualifies.
	if idx, _ := nearestWarm(cands, target, 0.1); idx != -1 {
		t.Fatalf("distant candidate accepted at index %d", idx)
	}
	// With a permissive bound the in-dimension candidate with
	// amplitudes wins over the exact matches that carry none.
	if idx, _ := nearestWarm(cands, target, 2); idx != 3 {
		t.Fatalf("nearest index %d, want 3", idx)
	}
}
