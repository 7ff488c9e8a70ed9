package qoc

import (
	"testing"

	"epoc/internal/gate"
	"epoc/internal/linalg"
)

// TestWarmStartConvergesNoWorseThanCold is the library-fixture
// contract behind the persistent store's warm starts: seeding GRAPE
// from a converged neighbour's amplitudes must reach the fidelity
// target at least as fast as a cold random start, and never converge
// below it when the cold run reaches it.
func TestWarmStartConvergesNoWorseThanCold(t *testing.T) {
	m := StandardModel(1, ModelOptions{})
	cfg := GRAPEConfig{MaxIter: 300, Target: 0.999, Seed: 1}
	const slots = 8

	// The stored neighbour: a converged pulse for RX(0.5).
	neighbour := GRAPE(m, gate.New(gate.RX, 0.5).Matrix(), slots, cfg)
	if neighbour.Fidelity < cfg.Target {
		t.Fatalf("fixture did not converge: fidelity %g", neighbour.Fidelity)
	}

	// The new request: RX(0.55) — close, but outside exact-match reach.
	target := gate.New(gate.RX, 0.55).Matrix()
	cold := GRAPE(m, target, slots, cfg)
	warm := WarmStartGRAPE(m, target, slots, neighbour.Amps, cfg)

	if cold.Fidelity >= cfg.Target && warm.Fidelity < cfg.Target {
		t.Fatalf("warm start converged below target: warm %g, cold %g", warm.Fidelity, cold.Fidelity)
	}
	if warm.Fidelity < cold.Fidelity-1e-3 {
		t.Fatalf("warm fidelity %g grossly below cold %g", warm.Fidelity, cold.Fidelity)
	}
	if warm.Iterations > cold.Iterations {
		t.Fatalf("warm start needed %d iterations, cold needed %d — no savings",
			warm.Iterations, cold.Iterations)
	}
	t.Logf("cold: %d iters, fidelity %.6f; warm: %d iters, fidelity %.6f",
		cold.Iterations, cold.Fidelity, warm.Iterations, warm.Fidelity)
}

// TestWarmStartEmptyAmpsFallsBackToCold: an entry without raw
// amplitudes degrades to a plain GRAPE run, bit-identically.
func TestWarmStartEmptyAmpsFallsBackToCold(t *testing.T) {
	m := StandardModel(1, ModelOptions{})
	cfg := GRAPEConfig{MaxIter: 50, Target: 0.999, Seed: 1}
	target := gate.New(gate.RX, 0.7).Matrix()
	a := GRAPE(m, target, 8, cfg)
	b := WarmStartGRAPE(m, target, 8, nil, cfg)
	if a.Fidelity != b.Fidelity || a.Iterations != b.Iterations {
		t.Fatalf("nil warm start diverged from cold: %+v vs %+v", a, b)
	}
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
