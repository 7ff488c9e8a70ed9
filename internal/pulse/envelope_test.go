package pulse

import (
	"math"
	"testing"

	"epoc/internal/gate"
	"epoc/internal/linalg"
	"epoc/internal/qoc"
)

// gaussianSquare samples a flat-top envelope with Gaussian edges (σ =
// edge/2) whose time-integral is area; edge = duration/2 leaves no
// plateau, a plain Gaussian.
func gaussianSquare(area, duration, edge, dt float64) []float64 {
	env := make([]float64, int(math.Round(duration/dt)))
	sum := 0.0
	for k := range env {
		t := (float64(k) + 0.5) * dt
		x := math.Max(math.Max(edge-t, t-(duration-edge)), 0) / (edge / 2)
		env[k] = math.Exp(-0.5 * x * x)
		sum += env[k] * dt
	}
	for k := range env {
		env[k] *= area / sum
	}
	return env
}

func TestGaussianPulseImplementsRX(t *testing.T) {
	// A σx/2 drive with any envelope of area θ is exactly RX(θ) on a
	// drift-free qubit; the sampled Gaussian must reproduce that.
	m := qoc.StandardModel(1, qoc.ModelOptions{Dt: 2})
	theta := math.Pi
	env := gaussianSquare(theta, 40, 20, 2)
	amps := make([][]float64, len(env))
	for k := range env {
		amps[k] = []float64{env[k], 0}
	}
	u := m.Propagate(amps)
	want := gate.New(gate.RX, theta).Matrix()
	if d := linalg.PhaseDistance(u, want); d > 1e-6 {
		t.Fatalf("Gaussian π-pulse distance to RX(π): %v", d)
	}
}

func TestGaussianSquareCouplerPulseImplementsISwapFamily(t *testing.T) {
	// Coupler drive (XX+YY)/2 with integral π/2 implements iSWAP† (the
	// |01⟩/|10⟩ block picks up -i); integral -π/2 gives iSWAP.
	m := qoc.StandardModel(2, qoc.ModelOptions{Dt: 2})
	env := gaussianSquare(-math.Pi/2, 120, 16, 2)
	amps := make([][]float64, len(env))
	for k := range env {
		amps[k] = []float64{0, 0, 0, 0, env[k]} // the coupler is control 4
	}
	u := m.Propagate(amps)
	iswap := linalg.FromRows([][]complex128{
		{1, 0, 0, 0},
		{0, 0, 1i, 0},
		{0, 1i, 0, 0},
		{0, 0, 0, 1},
	})
	if d := linalg.PhaseDistance(u, iswap); d > 1e-6 {
		t.Fatalf("coupler pulse distance to iSWAP: %v", d)
	}
}
