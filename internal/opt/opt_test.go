package opt

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func sphere(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return s
}

func sphereGrad(x, g []float64) {
	for i := range x {
		g[i] = 2 * x[i]
	}
}

// centralDiff is the textbook central-difference gradient of f with
// width h, for objectives without an analytic gradient.
func centralDiff(f Objective, h float64) Gradient {
	return func(x []float64, grad []float64) {
		xx := make([]float64, len(x))
		copy(xx, x)
		for i := range x {
			orig := xx[i]
			xx[i] = orig + h
			fp := f(xx)
			xx[i] = orig - h
			fm := f(xx)
			xx[i] = orig
			grad[i] = (fp - fm) / (2 * h)
		}
	}
}

func rosenbrock(x []float64) float64 {
	var s float64
	for i := 0; i < len(x)-1; i++ {
		s += 100*math.Pow(x[i+1]-x[i]*x[i], 2) + math.Pow(1-x[i], 2)
	}
	return s
}

func TestLBFGSSphere(t *testing.T) {
	res := LBFGS(sphere, sphereGrad, []float64{5, -7, 2, 1}, LBFGSConfig{})
	if res.F > 1e-10 {
		t.Fatalf("LBFGS sphere: f=%v", res.F)
	}
	if !res.Converged {
		t.Fatal("LBFGS should converge on the sphere")
	}
}

func TestLBFGSRosenbrock(t *testing.T) {
	g := centralDiff(rosenbrock, 1e-6)
	res := LBFGS(rosenbrock, g, []float64{-1.2, 1}, LBFGSConfig{MaxIter: 500})
	if res.F > 1e-6 {
		t.Fatalf("LBFGS Rosenbrock: f=%v x=%v", res.F, res.X)
	}
	for _, v := range res.X {
		if math.Abs(v-1) > 1e-3 {
			t.Fatalf("Rosenbrock minimizer should be (1,1): %v", res.X)
		}
	}
}

// TestLBFGSEvaluatesStartOnce pins the start-up cost: a run that
// converges at once (zero gradient at x0) evaluates f exactly once,
// at x0.
func TestLBFGSEvaluatesStartOnce(t *testing.T) {
	x0 := []float64{0.5, -1.5, 2}
	var calls [][]float64
	f := func(x []float64) float64 {
		calls = append(calls, append([]float64(nil), x...))
		return sphere(x)
	}
	zero := func(_, grad []float64) {
		for i := range grad {
			grad[i] = 0
		}
	}
	res := LBFGS(f, zero, x0, LBFGSConfig{})
	if !res.Converged || res.Iterations != 1 {
		t.Fatalf("zero-gradient start: converged=%v iterations=%d, want true, 1", res.Converged, res.Iterations)
	}
	if len(calls) != 1 {
		t.Fatalf("f evaluated %d times, want 1", len(calls))
	}
	for i, v := range calls[0] {
		// Exact comparison on purpose: the call must see x0 itself, bit for bit.
		if v != x0[i] {
			t.Fatalf("f evaluated at %v, want x0 = %v", calls[0], x0)
		}
	}
}

func TestFiniteDiffGradientMatchesAnalytic(t *testing.T) {
	g := centralDiff(sphere, 1e-6)
	x := []float64{1.5, -0.5, 2}
	num := make([]float64, 3)
	ana := make([]float64, 3)
	g(x, num)
	sphereGrad(x, ana)
	for i := range x {
		if math.Abs(num[i]-ana[i]) > 1e-6 {
			t.Fatalf("grad[%d]: %v vs %v", i, num[i], ana[i])
		}
	}
}

func TestQuickLBFGSShiftedQuadratic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		target := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		obj := func(x []float64) float64 {
			var s float64
			for i := range x {
				d := x[i] - target[i]
				s += d * d
			}
			return s
		}
		res := LBFGS(obj, centralDiff(obj, 1e-7), make([]float64, 3), LBFGSConfig{})
		return res.F < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
