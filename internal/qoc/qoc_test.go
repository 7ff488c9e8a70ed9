package qoc

import (
	"math"
	"math/rand"
	"testing"

	"epoc/internal/gate"
	"epoc/internal/linalg"
)

func TestModelStructure(t *testing.T) {
	m := StandardModel(3, ModelOptions{})
	// 2 drives per qubit + 2 chain couplers.
	if len(m.Controls) != 8 {
		t.Fatalf("control count = %d", len(m.Controls))
	}
	if m.Dim() != 8 {
		t.Fatalf("dim = %d", m.Dim())
	}
	for i, c := range m.Controls {
		if !c.IsHermitian(1e-12) {
			t.Fatalf("control %s not Hermitian", m.Names[i])
		}
	}
	if !m.Drift.IsHermitian(1e-12) {
		t.Fatal("drift not Hermitian")
	}
}

func TestModelDetunings(t *testing.T) {
	m := StandardModel(2, ModelOptions{Detuning: 0.1})
	if m.Drift.FrobeniusNorm() == 0 {
		t.Fatal("detuned drift is zero")
	}
	// Drift must be diagonal (Z terms only).
	for i := 0; i < m.Dim(); i++ {
		for j := 0; j < m.Dim(); j++ {
			if i != j && m.Drift.At(i, j) != 0 {
				t.Fatal("drift has off-diagonal terms")
			}
		}
	}
}

func TestModelInvalidCoupling(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	StandardModel(2, ModelOptions{Couplings: [][2]int{{0, 5}}})
}

func TestPropagateZeroAmpsIsDriftOnly(t *testing.T) {
	m := StandardModel(1, ModelOptions{})
	amps := [][]float64{make([]float64, len(m.Controls))}
	u := m.Propagate(amps)
	if linalg.PhaseDistance(u, linalg.Identity(2)) > 1e-9 {
		t.Fatal("zero drive on zero drift should be identity")
	}
}

func TestPropagateConstantXDrive(t *testing.T) {
	m := StandardModel(1, ModelOptions{Dt: 1})
	// Constant X drive of amplitude a for s slots → RX(a·s).
	a := 0.1
	slots := 10
	amps := make([][]float64, slots)
	for k := range amps {
		amps[k] = []float64{a, 0}
	}
	u := m.Propagate(amps)
	want := gate.New(gate.RX, a*float64(slots)).Matrix()
	if d := linalg.PhaseDistance(u, want); d > 1e-6 {
		t.Fatalf("constant drive mismatch: %v", d)
	}
}

func TestFidelityBounds(t *testing.T) {
	id := linalg.Identity(4)
	if f := Fidelity(id, id); math.Abs(f-1) > 1e-12 {
		t.Fatalf("self fidelity %v", f)
	}
	x := gate.New(gate.X).Matrix()
	z := gate.New(gate.Z).Matrix()
	if f := Fidelity(x, z); f > 1e-12 {
		t.Fatalf("orthogonal fidelity %v", f)
	}
}

func TestGRAPEXGate(t *testing.T) {
	m := StandardModel(1, ModelOptions{})
	res := GRAPE(m, gate.New(gate.X).Matrix(), 12, GRAPEConfig{MaxIter: 400})
	if res.Fidelity < 0.999 {
		t.Fatalf("X pulse fidelity %v after %d iters", res.Fidelity, res.Iterations)
	}
	// Propagating the returned amplitudes must reproduce the fidelity.
	u := m.Propagate(res.Amps)
	if f := Fidelity(u, gate.New(gate.X).Matrix()); math.Abs(f-res.Fidelity) > 1e-9 {
		t.Fatalf("reported %v, propagated %v", res.Fidelity, f)
	}
	// Amplitudes must respect the hardware bounds.
	for _, slot := range res.Amps {
		for j, a := range slot {
			if math.Abs(a) > m.MaxAmp[j]+1e-12 {
				t.Fatalf("amplitude %v exceeds bound %v", a, m.MaxAmp[j])
			}
		}
	}
}

func TestGRAPEHGate(t *testing.T) {
	m := StandardModel(1, ModelOptions{})
	res := GRAPE(m, gate.New(gate.H).Matrix(), 12, GRAPEConfig{MaxIter: 400})
	if res.Fidelity < 0.999 {
		t.Fatalf("H pulse fidelity %v", res.Fidelity)
	}
}

func TestGRAPETooShortPulseFails(t *testing.T) {
	m := StandardModel(1, ModelOptions{})
	// One 2ns slot at max 0.188 rad/ns cannot realize a π rotation.
	res := GRAPE(m, gate.New(gate.X).Matrix(), 1, GRAPEConfig{MaxIter: 150})
	if res.Fidelity > 0.99 {
		t.Fatalf("impossible pulse claims fidelity %v", res.Fidelity)
	}
}

func TestGRAPECNOT(t *testing.T) {
	m := StandardModel(2, ModelOptions{})
	res := GRAPE(m, gate.New(gate.CX).Matrix(), 60, GRAPEConfig{MaxIter: 600})
	if res.Fidelity < 0.995 {
		t.Fatalf("CNOT pulse fidelity %v after %d iters", res.Fidelity, res.Iterations)
	}
	u := m.Propagate(res.Amps)
	if f := Fidelity(u, gate.New(gate.CX).Matrix()); math.Abs(f-res.Fidelity) > 1e-9 {
		t.Fatal("propagated fidelity mismatch")
	}
}

func TestGRAPERandom2QUnitary(t *testing.T) {
	m := StandardModel(2, ModelOptions{})
	rng := newRand(7)
	target := linalg.RandomUnitary(4, rng)
	res := GRAPE(m, target, 80, GRAPEConfig{MaxIter: 600, Seed: 3})
	if res.Fidelity < 0.99 {
		t.Fatalf("random SU(4) pulse fidelity %v", res.Fidelity)
	}
}

func TestDurationSearchFindsShorterPulse(t *testing.T) {
	m := StandardModel(1, ModelOptions{})
	x := gate.New(gate.X).Matrix()
	res := DurationSearch(m, x, 1, 24, 2, GRAPEConfig{MaxIter: 300})
	if res.Fidelity < 0.999 {
		t.Fatalf("duration search fidelity %v", res.Fidelity)
	}
	if res.Slots >= 24 {
		t.Fatalf("duration search did not shorten: %d slots", res.Slots)
	}
	if res.Duration != float64(res.Slots)*m.Dt {
		t.Fatal("duration/slots inconsistent")
	}
	// A 1-slot X pulse is impossible, so the minimum must exceed 1.
	if res.Slots < 2 {
		t.Fatalf("suspiciously short X pulse: %d slots", res.Slots)
	}
}

func TestDurationSearchImpossibleTarget(t *testing.T) {
	m := StandardModel(1, ModelOptions{})
	res := DurationSearch(m, gate.New(gate.X).Matrix(), 1, 1, 1, GRAPEConfig{MaxIter: 100})
	if res.Fidelity >= 0.999 {
		t.Fatal("impossible search should report the failed fidelity")
	}
	if res.Slots != 1 {
		t.Fatalf("slots = %d", res.Slots)
	}
}

func TestTraceProduct(t *testing.T) {
	a := linalg.FromRows([][]complex128{{1, 2}, {3, 4}})
	b := linalg.FromRows([][]complex128{{5, 6}, {7, 8}})
	want := a.Mul(b).Trace()
	terms, touched := controlPattern([]*linalg.Matrix{b})
	rho := make([]complex128, len(touched))
	for i, e := range touched {
		rho[i] = a.Data[int(e.row)+int(e.col)]
	}
	if got := traceProduct(rho, terms[0]); got != want {
		t.Fatalf("traceProduct %v, want %v", got, want)
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
