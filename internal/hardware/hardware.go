// Package hardware models the target superconducting device: qubit
// topology, calibrated basis-gate durations and fidelities (feeding the
// gate-based baseline), and the control-model parameters handed to the
// QOC engine for pulse-level compilation.
package hardware

import (
	"fmt"

	"epoc/internal/gate"
	"epoc/internal/qoc"
)

// Device describes a superconducting quantum processor.
type Device struct {
	Name      string
	NumQubits int
	Edges     [][2]int // coupler topology

	// Calibrated basis-gate pulse durations in ns for the gate-based
	// baseline. RZ is virtual (0 ns) as on IBM backends.
	GateDuration map[gate.Kind]float64
	// Calibrated per-gate fidelities for the gate-based baseline.
	Fidelity1Q float64
	Fidelity2Q float64
	Fidelity3Q float64

	// Control-model parameters for QOC on extracted blocks.
	Dt         float64 // time-slot width, ns
	DriveMax   float64 // rad/ns
	CouplerMax float64 // rad/ns
}

// LinearChain returns an IBM-flavoured n-qubit device with a linear
// coupler chain: 35.5 ns single-qubit pulses, virtual RZ, ~300 ns
// CNOT/CZ, tunable couplers for QOC.
func LinearChain(n int) *Device {
	if n < 1 {
		panic("hardware: need at least one qubit")
	}
	d := &Device{
		Name:      fmt.Sprintf("linear-%d", n),
		NumQubits: n,
		GateDuration: map[gate.Kind]float64{
			gate.I: 0, gate.RZ: 0, gate.P: 0, gate.U1: 0, gate.Z: 0,
			gate.S: 0, gate.Sdg: 0, gate.T: 0, gate.Tdg: 0,
			gate.X: 35.5, gate.Y: 35.5, gate.SX: 35.5, gate.SXdg: 35.5,
			gate.H: 35.5, gate.RX: 35.5, gate.RY: 35.5, gate.U2: 35.5, gate.U3: 71,
			gate.CX: 300, gate.CY: 335.5, gate.CZ: 300, gate.CH: 371,
			gate.CRX: 371, gate.CRY: 371, gate.CRZ: 335.5, gate.CP: 335.5,
			gate.RXX: 371, gate.RZZ: 335.5,
			gate.SWAP: 900, gate.CCX: 1100, gate.CSWP: 1400,
		},
		Fidelity1Q: 0.99962,
		Fidelity2Q: 0.99100,
		Fidelity3Q: 0.97500,
		Dt:         2,
		DriveMax:   0.188,
		CouplerMax: 0.0314,
	}
	for q := 0; q < n-1; q++ {
		d.Edges = append(d.Edges, [2]int{q, q + 1})
	}
	return d
}

// GateLatency returns the calibrated duration of a gate in ns. Unknown
// kinds (including block unitaries) panic: blocks must go through QOC.
func (d *Device) GateLatency(k gate.Kind) float64 {
	dur, ok := d.GateDuration[k]
	if !ok {
		panic(fmt.Sprintf("hardware: no calibrated duration for gate %q", k))
	}
	return dur
}

// GateFidelity returns the calibrated fidelity for a gate of the given
// arity.
func (d *Device) GateFidelity(qubits int) float64 {
	switch {
	case qubits <= 1:
		return d.Fidelity1Q
	case qubits == 2:
		return d.Fidelity2Q
	default:
		return d.Fidelity3Q
	}
}

// BlockModel builds the QOC control model for a block of k qubits
// using the device's drive parameters. Blocks are assumed to sit on a
// connected sub-chain of couplers (the partitioner groups interacting
// qubits), so the model uses a length-k chain.
func (d *Device) BlockModel(k int) *qoc.Model {
	return qoc.StandardModel(k, qoc.ModelOptions{
		Dt:         d.Dt,
		DriveMax:   d.DriveMax,
		CouplerMax: d.CouplerMax,
	})
}

// MaxSlots bounds the QOC duration search for a k-qubit block: the
// calibrated gate stack gives a generous upper bound on how long any
// k-qubit unitary should take.
func (d *Device) MaxSlots(k int) int {
	switch {
	case k <= 1:
		return int(80 / d.Dt) // 80 ns
	case k == 2:
		return int(640 / d.Dt) // 640 ns
	default:
		return int(960 / d.Dt) // 960 ns (≈ 3 CX-equivalents of content)
	}
}
