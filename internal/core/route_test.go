package core

import (
	"testing"

	"epoc/internal/circuit"
	"epoc/internal/gate"
	"epoc/internal/hardware"
)

func TestRoutedCompileNonAdjacent(t *testing.T) {
	// A CX between the two ends of the chain requires routing.
	c := circuit.New(4)
	c.Append(gate.New(gate.H), 0)
	c.Append(gate.New(gate.CX), 0, 3)
	dev := hardware.LinearChain(4)
	res, err := Compile(c, Options{Strategy: EPOC, Device: dev, Mode: QOCEstimate, Route: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency <= 0 {
		t.Fatal("routed compile produced no schedule")
	}
	for _, it := range res.Schedule.Items {
		qs := it.Pulse.Qubits
		if len(qs) == 2 && qs[1]-qs[0] != 1 {
			t.Fatalf("pulse on non-adjacent qubits %v", qs)
		}
	}
}

func TestRoutedCompileWideGate(t *testing.T) {
	// CCX must be decomposed by the routing pre-pass, not rejected.
	c := circuit.New(3)
	c.Append(gate.New(gate.CCX), 0, 1, 2)
	dev := hardware.LinearChain(3)
	res, err := Compile(c, Options{Strategy: EPOC, Device: dev, Mode: QOCEstimate, Route: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency <= 0 {
		t.Fatal("no schedule")
	}
	// With routing, every pulse acts on adjacent qubits.
	for _, it := range res.Schedule.Items {
		qs := it.Pulse.Qubits
		if len(qs) == 2 && qs[1]-qs[0] != 1 {
			t.Fatalf("pulse on non-adjacent qubits %v", qs)
		}
		if len(qs) > 2 {
			t.Fatalf("routed compile produced a %d-qubit pulse", len(qs))
		}
	}
}
