package qoc

import (
	"math"
	"testing"

	"epoc/internal/gate"
	"epoc/internal/linalg"
)

func TestCRABXGate(t *testing.T) {
	m := StandardModel(1, ModelOptions{})
	res := CRAB(m, gate.New(gate.X).Matrix(), 16, CRABConfig{MaxIter: 3000})
	if res.Fidelity < 0.999 {
		t.Fatalf("CRAB X fidelity %v", res.Fidelity)
	}
	// Amplitudes respect bounds.
	for _, slot := range res.Amps {
		for j, a := range slot {
			if math.Abs(a) > m.MaxAmp[j]+1e-12 {
				t.Fatalf("CRAB amplitude %v exceeds bound %v", a, m.MaxAmp[j])
			}
		}
	}
	// Propagation reproduces the claimed fidelity.
	u := m.Propagate(res.Amps)
	if f := Fidelity(u, gate.New(gate.X).Matrix()); math.Abs(f-res.Fidelity) > 1e-9 {
		t.Fatalf("propagated %v vs claimed %v", f, res.Fidelity)
	}
}

func TestCRABHGate(t *testing.T) {
	m := StandardModel(1, ModelOptions{})
	res := CRAB(m, gate.New(gate.H).Matrix(), 16, CRABConfig{MaxIter: 3000, Seed: 3})
	if res.Fidelity < 0.995 {
		t.Fatalf("CRAB H fidelity %v", res.Fidelity)
	}
}

func TestCRABTooShortFails(t *testing.T) {
	m := StandardModel(1, ModelOptions{})
	res := CRAB(m, gate.New(gate.X).Matrix(), 1, CRABConfig{MaxIter: 500})
	if res.Fidelity > 0.99 {
		t.Fatalf("impossible CRAB pulse claims %v", res.Fidelity)
	}
}

func TestCRABDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CRAB(StandardModel(1, ModelOptions{}), linalg.Identity(4), 8, CRABConfig{})
}

func TestSimilarityMetric(t *testing.T) {
	x := gate.New(gate.X).Matrix()
	if Similarity(x, x) > 1e-12 {
		t.Fatal("self-similarity should be 0")
	}
	if Similarity(x, x.Scale(complex(0, 1))) > 1e-9 {
		t.Fatal("similarity should ignore global phase")
	}
	z := gate.New(gate.Z).Matrix()
	if Similarity(x, z) < 0.5 {
		t.Fatal("X and Z should be far apart")
	}
}

func TestMSTOrderStructure(t *testing.T) {
	rng := newRand(11)
	// A cluster of nearby unitaries plus one far outlier.
	base := linalg.RandomUnitary(4, rng)
	us := []*linalg.Matrix{
		base,
		base.Mul(linalg.Expm(linalg.RandomHermitian(4, rng).Scale(complex(0, 0.01)))),
		base.Mul(linalg.Expm(linalg.RandomHermitian(4, rng).Scale(complex(0, 0.02)))),
		linalg.RandomUnitary(4, rng),
	}
	order, parent := MSTOrder(us)
	if len(order) != 4 {
		t.Fatalf("order covers %d of 4", len(order))
	}
	if order[0] != 0 || parent[0] != -1 {
		t.Fatal("root should be index 0 with no parent")
	}
	// Every non-root parent must already be placed when its child is.
	seen := map[int]bool{}
	for _, v := range order {
		if v != 0 && !seen[parent[v]] {
			t.Fatalf("parent %d of %d not yet visited", parent[v], v)
		}
		seen[v] = true
	}
	// The nearby unitaries should attach to the cluster, not the outlier.
	if parent[1] == 3 || parent[2] == 3 {
		t.Fatal("cluster members attached to the outlier")
	}
}

func TestMSTOrderEmpty(t *testing.T) {
	order, parent := MSTOrder(nil)
	if len(order) != 0 || len(parent) != 0 {
		t.Fatal("empty MST should be empty")
	}
}

func TestWarmStartGRAPEConvergesFaster(t *testing.T) {
	m := StandardModel(2, ModelOptions{})
	target := gate.New(gate.CX).Matrix()
	cold := GRAPE(m, target, 60, GRAPEConfig{MaxIter: 600})
	if cold.Fidelity < 0.995 {
		t.Fatalf("cold GRAPE fidelity %v", cold.Fidelity)
	}
	// Perturb the target slightly and warm-start from the cold pulse.
	rng := newRand(5)
	perturbed := target.Mul(linalg.Expm(linalg.RandomHermitian(4, rng).Scale(complex(0, 0.02))))
	warm := WarmStartGRAPE(m, perturbed, 60, cold.Amps, GRAPEConfig{MaxIter: 600})
	if warm.Fidelity < 0.995 {
		t.Fatalf("warm GRAPE fidelity %v", warm.Fidelity)
	}
	if warm.Iterations >= cold.Iterations {
		t.Fatalf("warm start (%d iters) not faster than cold (%d iters)",
			warm.Iterations, cold.Iterations)
	}
}

func TestWarmStartEmptyFallsBack(t *testing.T) {
	m := StandardModel(1, ModelOptions{})
	res := WarmStartGRAPE(m, gate.New(gate.X).Matrix(), 12, nil, GRAPEConfig{MaxIter: 400})
	if res.Fidelity < 0.999 {
		t.Fatalf("fallback warm start fidelity %v", res.Fidelity)
	}
}
